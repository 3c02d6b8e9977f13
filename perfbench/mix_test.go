package main

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"bpred/internal/sweep"
)

func TestMixIsSeeded(t *testing.T) {
	a, b := buildMix(7, 512), buildMix(7, 512)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different mixes")
	}
	if reflect.DeepEqual(a, buildMix(8, 512)) {
		t.Fatal("different seeds drew the same mix")
	}
}

// TestMixCoversEveryMechanism checks the mix holds every op kind,
// that overlap ops really share cells with an earlier op, that fresh
// specs never reuse a warmup on their trace, and that every spec
// enumerates valid configurations.
func TestMixCoversEveryMechanism(t *testing.T) {
	ops := buildMix(1, mixLen)
	kinds := map[string]int{}
	type binding struct{ trace, warmup int }
	used := map[binding]bool{}
	adjacentRepeats := 0
	for i, o := range ops {
		kinds[o.Kind]++
		b := binding{o.Trace, o.Spec.Warmup}
		switch o.Kind {
		case kindBase, kindPAs, kindLarge:
			if used[b] {
				t.Fatalf("op %d (%s) reuses warmup %d on trace %d", i, o.Kind, o.Spec.Warmup, o.Trace)
			}
		case kindOverlap:
			if !used[b] {
				t.Fatalf("op %d overlaps nothing earlier", i)
			}
		case kindRepeat:
			if reflect.DeepEqual(o.Spec, ops[i-1].Spec) && o.Trace == ops[i-1].Trace {
				adjacentRepeats++
			}
		}
		if o.Kind != kindRepeat && (o.Kind == kindLarge) != (o.Trace >= smallTraces) {
			t.Fatalf("op %d (%s) runs on trace %d", i, o.Kind, o.Trace)
		}
		used[b] = true
		opts, err := specOptions(o.Spec)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		for _, c := range sweep.Configs(opts) {
			if err := c.Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	for _, k := range []string{kindBase, kindOverlap, kindPAs, kindRepeat, kindLarge} {
		if kinds[k] == 0 {
			t.Errorf("no %s ops in %d", k, len(ops))
		}
	}
	if adjacentRepeats == 0 {
		t.Error("no op repeats its predecessor, so no identical submissions are concurrent")
	}
}

func TestPoolIsSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full pool three times")
	}
	digests := func(seed uint64) [][32]byte {
		pool, err := buildPool(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out [][32]byte
		for _, pt := range pool {
			out = append(out, sha256.Sum256(pt.body))
		}
		if len(pool) != smallTraces+largeTraces || !pool[smallTraces].large || pool[smallTraces-1].large {
			t.Fatalf("pool layout: %d traces", len(pool))
		}
		return out
	}
	a := digests(3)
	if !reflect.DeepEqual(a, digests(3)) {
		t.Fatal("the same seed built different pools")
	}
	b := digests(4)
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("trace %d is the same under seeds 3 and 4", i)
		}
	}
}
