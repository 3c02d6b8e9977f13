package sim

import (
	"context"
	"runtime"
	"sync"

	"bpred/internal/core"
	"bpred/internal/trace"
)

// RunConfigsStream builds and evaluates every configuration over a
// streaming branch source in a single pass, without requiring the
// trace to be memory-resident: each NextBatch window (for a BPT2
// reader, one decoded block) is fed to every runner before the next
// is decoded, so peak residency is one chunk regardless of trace
// length. Metrics are bit-identical to RunConfigsCtx over the decoded
// trace — chunking does not affect results (the metamorphic suite
// pins this), and the per-config runners here are the same ones the
// in-memory unfused path uses.
//
// The streaming path does not fuse yet, for a measured reason, not a
// structural one: fusedBatch.feed already works chunk by chunk. On
// 6M-branch tier-4 runs (2-CPU Xeon), fused batches behind this
// path's per-chunk barrier took 354–450 ms against 320–392 ms
// per-config, no gain; with a 4-slot decode-ahead ring they took
// 160–200 ms against 300–480 ms. Both are decode-bound —
// binary.Varint is about half of BPT2 decode CPU — so fusion here
// waits on a decoder that keeps up (ROADMAP item 1). Until then the
// streaming path parallelizes across configs within each chunk.
//
// Cancellation is checked at chunk boundaries only (kernels stay
// pure). On cancellation every returned entry is zero — a single
// shared pass has no per-config completion order — and ctx.Err() is
// returned. A source error (corrupt or truncated trace) is returned
// the same way: zero metrics, non-nil error.
func RunConfigsStream(ctx context.Context, configs []core.Config, src trace.BatchSource, opt Options) ([]Metrics, error) {
	preds, err := buildConfigs(configs, opt)
	if err != nil {
		return nil, err
	}
	rs := make([]runner, len(preds))
	for i, p := range preds {
		rs[i] = newRunner(p, opt)
	}
	zero := make([]Metrics, len(preds))
	if err := streamChunks(ctx, rs, src, opt); err != nil {
		return zero, err
	}
	if es, ok := src.(interface{ Err() error }); ok {
		if err := es.Err(); err != nil {
			return zero, err
		}
	}
	out := make([]Metrics, len(rs))
	for i := range rs {
		out[i] = rs[i].finish()
	}
	return out, nil
}

// streamChunks drives the decode loop, fanning each chunk across
// worker goroutines in the strided config partitions strideSplit
// gives the in-memory executor. The chunk window is only valid until
// the next NextBatch call, so every worker must drain it before the
// next decode — a per-chunk barrier. Workers are persistent; the
// barrier is two channel hops per chunk, amortized over a whole chunk
// of kernel work per config. A single partition runs inline.
func streamChunks(ctx context.Context, rs []runner, src trace.BatchSource, opt Options) error {
	parts := strideSplit(seq(len(rs)), min(runtime.GOMAXPROCS(0), len(rs)))
	feedPart := func(part []int, chunk []trace.Branch) {
		for _, i := range part {
			rs[i].feed(chunk)
		}
	}
	feed := func(chunk []trace.Branch) {
		for _, part := range parts {
			feedPart(part, chunk)
		}
	}
	if len(parts) > 1 {
		chans := make([]chan []trace.Branch, len(parts))
		var barrier sync.WaitGroup
		for w, part := range parts {
			ch := make(chan []trace.Branch)
			chans[w] = ch
			go func() {
				for chunk := range ch {
					feedPart(part, chunk)
					barrier.Done()
				}
			}()
		}
		defer func() {
			for _, ch := range chans {
				close(ch)
			}
		}()
		feed = func(chunk []trace.Branch) {
			barrier.Add(len(chans))
			for _, ch := range chans {
				ch <- chunk
			}
			barrier.Wait()
		}
	}
	buf := make([]trace.Branch, chunkLen(opt))
	done := ctx.Done()
	for {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		chunk := src.NextBatch(buf)
		if len(chunk) == 0 {
			return nil
		}
		feed(chunk)
	}
}
