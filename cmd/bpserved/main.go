// bpserved serves branch-predictor sweeps over HTTP: upload BPT1 or
// BPT2 traces, submit sweep jobs, poll status, stream progress, and
// fetch results, with all simulation deduplicated through the shared
// BPC1 checkpoint cache.
//
// Usage:
//
//	bpserved -data ./bpserved-data                 # single-node on :8149
//	bpserved -listen 127.0.0.1:0 -workers 4        # ephemeral port
//
// Cluster mode splits the process into a coordinator and workers:
//
//	bpserved -role coordinator -data ./coord-data
//	bpserved -role worker -node w1 -join http://localhost:8149
//	bpserved -role worker -node w2 -join http://localhost:8149
//
// The coordinator serves the normal sweep API, consistent-hashes the
// cells of every job across joined workers (plus one embedded local
// worker so a lone coordinator still completes jobs), and keeps the
// authoritative BPC1 ledger; workers are stateless pullers that dial
// in over HTTP — no inbound connectivity to them is needed.
//
// The chosen listen address is printed to stderr as
// "bpserved: listening on ADDR" once the socket is bound, so wrappers
// can parse it when using port 0. SIGINT/SIGTERM drains gracefully:
// running jobs stop at their next chunk boundary, checkpoints are
// flushed, the job table is persisted, and the process exits 0; a
// restart over the same -data directory resumes interrupted jobs and
// keeps serving completed results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"bpred/internal/cluster"
	"bpred/internal/service"
)

func main() {
	var (
		listen   = flag.String("listen", ":8149", "listen address (host:port; port 0 picks a free port)")
		dataDir  = flag.String("data", "", "data directory for traces, checkpoints, results, and the job table (required unless -role worker)")
		workers  = flag.Int("workers", 0, "sweep worker pool size (0 = 2)")
		queue    = flag.Int("queue", 0, "job queue depth before submissions see 429 (0 = 64)")
		maxBr    = flag.Uint64("max-trace-branches", 0, "per-trace record cap (0 = 16M)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for running jobs to reach a chunk boundary")
		role     = flag.String("role", "single", "process role: single, coordinator, or worker")
		node     = flag.String("node", "", "this node's fleet identity (default: derived from role and pid)")
		join     = flag.String("join", "", "coordinator base URL a worker dials, e.g. http://host:8149 (required for -role worker)")
		lease    = flag.Duration("cluster-lease", 2*time.Minute, "coordinator: re-queue a dispatched chunk if not completed within this lease (0 disables)")
		authFile = flag.String("auth-file", "", "tenants JSON file ([{name, key, max_traces, max_queued_jobs}]); enables multi-tenant auth")
		cToken   = flag.String("cluster-token", "", "shared bearer token protecting the /cluster/v1 transport (coordinator and workers)")
		cacheCap = flag.Int("trace-cache", 0, "decoded-trace LRU capacity in traces (0 = 8); running jobs pin their traces")
		streamBr = flag.Uint64("stream-branches", 0, "traces beyond this record count stream from disk instead of decoding (0 = 4M)")
	)
	flag.Parse()

	switch *role {
	case "worker":
		os.Exit(runWorker(*node, *join, *cToken))
	case "single", "coordinator":
	default:
		fmt.Fprintf(os.Stderr, "bpserved: unknown -role %q (want single, coordinator, or worker)\n", *role)
		os.Exit(2)
	}

	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "bpserved: -data required")
		os.Exit(2)
	}

	cfg := service.Config{
		DataDir:          *dataDir,
		Workers:          *workers,
		QueueDepth:       *queue,
		MaxTraceBranches: *maxBr,
		TraceCacheCap:    *cacheCap,
		StreamBranches:   *streamBr,
	}
	if *authFile != "" {
		tenants, err := service.LoadTenants(*authFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpserved: %v\n", err)
			os.Exit(1)
		}
		cfg.Tenants = tenants
		fmt.Fprintf(os.Stderr, "bpserved: multi-tenant mode, %d tenants\n", len(tenants))
	}

	// Coordinator role: jobs schedule onto the cluster instead of the
	// in-process engine. The coordinator's ledger lives under its own
	// subdirectory — the manager's per-job stores already own
	// checkpoints/, and checkpoint forbids two live Stores per path.
	var coord *cluster.Coordinator
	if *role == "coordinator" {
		if err := os.MkdirAll(filepath.Join(*dataDir, "cluster"), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "bpserved: %v\n", err)
			os.Exit(1)
		}
		coord = cluster.NewCoordinator(cluster.Config{
			Dir:          filepath.Join(*dataDir, "cluster"),
			LeaseTimeout: *lease,
			PublishName:  "bpcluster",
		})
		cfg.Scheduler = service.ClusterScheduler{Coord: coord}
	}

	m, err := service.NewManager(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpserved: %v\n", err)
		os.Exit(1)
	}

	handler := http.Handler(service.NewServer(m))
	var localWorkerDone chan error
	var stopLocalWorker context.CancelFunc
	if coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/cluster/v1/", http.StripPrefix("/cluster/v1", cluster.AuthHandler(coord, m.Traces(), *cToken)))
		mux.Handle("/", handler)
		handler = mux
		// Embedded local worker: a lone coordinator still completes
		// jobs, and a fleet gets this node's cores too.
		id := *node
		if id == "" {
			id = fmt.Sprintf("coord-%d", os.Getpid())
		}
		w := cluster.NewWorker(id+"-local", coord, m.Traces())
		wctx, cancel := context.WithCancel(context.Background())
		stopLocalWorker = cancel
		localWorkerDone = make(chan error, 1)
		go func() { localWorkerDone <- w.Run(wctx) }()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpserved: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bpserved: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "bpserved: %v: draining\n", s)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "bpserved: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	// Drain first (stop accepting work, interrupt jobs at the next
	// chunk boundary, flush checkpoints, persist the job table), then
	// close the HTTP side.
	if err := m.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bpserved: drain: %v\n", err)
		srv.Close()
		os.Exit(1)
	}
	if stopLocalWorker != nil {
		stopLocalWorker()
		<-localWorkerDone
	}
	if coord != nil {
		if err := coord.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "bpserved: cluster stop: %v\n", err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "bpserved: shutdown: %v\n", err)
	}
	<-errCh // Serve has returned http.ErrServerClosed
	fmt.Fprintln(os.Stderr, "bpserved: drained, exiting")
}

// runWorker runs the stateless worker role: dial the coordinator,
// pull chunks, push results, until SIGINT/SIGTERM.
func runWorker(node, join, token string) int {
	if join == "" {
		fmt.Fprintln(os.Stderr, "bpserved: -role worker requires -join <coordinator URL>")
		return 2
	}
	if node == "" {
		node = fmt.Sprintf("worker-%d", os.Getpid())
	}
	base := strings.TrimRight(join, "/") + "/cluster/v1"
	w := cluster.NewWorker(node,
		&cluster.HTTPClient{Base: base, Token: token},
		&cluster.RemoteTraces{Base: base, Token: token})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "bpserved: worker %s joining %s\n", node, base)
	err := w.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "bpserved: worker: %v\n", err)
		return 1
	}
	st := w.Stats()
	fmt.Fprintf(os.Stderr, "bpserved: worker %s exiting (chunks %d, computed %d, local %d, replicas %d)\n",
		node, st.ChunksRun, st.CellsComputed, st.CellsLocal, st.ReplicasInstalled)
	return 0
}
