// Command poiserve runs the poilabel Service as an HTTP/JSON server — the
// system's front door for driving it as an actual service.
//
// Usage:
//
//	poiserve [-addr :8080] [-engine single|sharded|federated]
//	         [-shards K] [-cities N] [-budget N] [-h N]
//	         [-assigner accopt|sf|random]
//	         [-fullem N] [-bg-fit D [-bg-min-answers N]]
//	         [-elastic [-elastic-check D] [-elastic-split R] [-elastic-merge R]
//	          [-elastic-max K] [-elastic-min-answers N]]
//	         [-demo N] [-demo-tasks N] [-seed N]
//	         [-checkpoint path [-checkpoint-interval D]] [-restore path]
//	         [-shutdown-timeout D]
//	         [-trace [-trace-slow D]] [-debug-addr :6060]
//
// With -trace every request, background fit, and migration records a span
// tree: recent traces are kept in a ring served on GET /debug/traces (filter
// with ?slow=1, ?min_ms=, ?name=), slow and errored traces are always kept,
// responses carry X-Poilabel-Trace IDs (client-supplied IDs are adopted, so
// a client can join its latency outliers with server-side span trees),
// and /metrics grows the poilabel_trace_* families. With -debug-addr the
// full net/http/pprof surface is mounted on a second listener and /metrics
// grows poiserve_go_* runtime gauges (goroutines, live heap, GC pause).
//
// Every full fit is EM over a fork of the engine with no lock held, publishes
// a parameter generation, and every read serves it; -bg-fit only chooses who
// triggers the fit. Without it the request that makes a fit due runs it and
// waits: the -fullem N-th answer, or a /results read with unfitted answers
// behind it — nobody else does. With -bg-fit D full EM fits leave the request
// path entirely: a scheduler goroutine fits at most every D (eagerly once
// -bg-min-answers have queued), so /results and /assignments latency is
// bounded by the hardware, not by EM convergence, and /results serves the
// last generation however stale; /healthz grows a "fit" section. On shutdown
// the scheduler drains — outstanding answers are folded into one final
// generation — before the final checkpoint is written.
//
// With or without -bg-fit, a /results response is one generation's: its body
// is encoded once, by the generation's first reader, and written as it stands
// to every later one, and its X-Poilabel-Generation and
// X-Poilabel-Staleness-Seconds headers name that same generation and how long
// answers it does not cover have been waiting. A body that cannot be encoded
// is a 500, never a truncated 200.
//
// -assigner picks the assignment strategy on every engine: one round of it
// over every registered task, the sharded and federated engines reading each
// task's state from the shard that owns it.
//
// With -bg-fit and the accopt assigner, on every engine, assignment
// planning also leaves the write lock: /assignments plans against the last
// published snapshot (per-worker candidate lists) and only takes the lock
// for a short optimistic commit. /healthz grows a "plan" section with
// conflict/retry counters and the last plan latency.
//
// With -elastic (requires -engine sharded and -bg-fit) the shard layout
// becomes drift-aware: a detector watches per-shard answer traffic every
// -elastic-check and re-partitions live — splitting a shard whose window
// share exceeds -elastic-split times the mean (up to -elastic-max shards),
// or merging the coldest shard into its nearest neighbor when their combined
// share falls below -elastic-merge times the mean. Migrations run between the
// scheduler's fits and never drop an acknowledged answer. /healthz
// grows an "elastic" section and /metrics the poilabel_shard_* and
// poilabel_elastic_* families.
//
// The server starts empty: register tasks and workers over HTTP, stream
// answers, request assignments, and read results (see internal/serve for
// the endpoint list, GET /healthz for liveness, or GET /metrics for
// Prometheus counters and latency summaries). With -demo N a deterministic
// synthetic world — the Beijing dataset of the reproduction experiments
// plus N simulated workers, or a -demo-tasks sized synthetic city — is
// pre-registered so the server is immediately usable (and so a client, given
// the same seed, can regenerate the identical world with crowd.DemoWorld):
//
//	poiserve -demo 30 -engine sharded -shards 4 &
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/assignments -d '{"workers":["w0","w1"]}'
//
// poiserve shuts down gracefully on SIGTERM/SIGINT: the listener closes,
// in-flight requests drain for up to -shutdown-timeout, and with
// -checkpoint a final snapshot is written after the drain, so a rolling
// restart with -restore loses nothing that was ever acknowledged.
//
// With -checkpoint the server persists its full learned state to the given
// file on POST /checkpoint (and, with -checkpoint-interval, periodically);
// writes are atomic write-then-rename. A restarted server passes -restore
// with the same engine flags to resume exactly where the snapshot left off
// — identical results, assignment plans, and remaining budget:
//
//	poiserve -demo 30 -checkpoint /var/lib/poi.snap -checkpoint-interval 30s &
//	curl -s -X POST localhost:8080/checkpoint
//	kill %1 && poiserve -restore /var/lib/poi.snap &
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"poilabel"
	"poilabel/internal/crowd"
	"poilabel/internal/metrics"
	"poilabel/internal/serve"
	"poilabel/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	engine := flag.String("engine", "single", "engine: single, sharded, or federated")
	shards := flag.Int("shards", 0, "geographic shards per city (sharded/federated engines; 0 = default)")
	cities := flag.Int("cities", 0, "city partitions (federated engine; 0 = default)")
	budget := flag.Int("budget", -1, "total assignment budget (-1 = unlimited)")
	h := flag.Int("h", 2, "tasks handed to each requesting worker")
	assigner := flag.String("assigner", "accopt", "assigner on every engine: accopt, sf, or random")
	fullEM := flag.Int("fullem", 100, "answers between full fits, run by the request that completes the interval (0 = only when /results needs one; unused with -bg-fit)")
	bgFit := flag.Duration("bg-fit", 0, "trigger full fits from a scheduler goroutine, at most this often (0 = the request that makes a fit due runs it and waits)")
	bgMin := flag.Int("bg-min-answers", 256, "answers that trigger an eager scheduler fit before the cadence tick (needs -bg-fit)")
	elastic := flag.Bool("elastic", false, "drift-aware elastic re-sharding: split hot shards, merge cold ones, migrate live (needs -engine sharded and -bg-fit)")
	elasticCheck := flag.Duration("elastic-check", 5*time.Second, "drift-detector tick (needs -elastic; 0 = detector off, migrations only via tests)")
	elasticSplit := flag.Float64("elastic-split", 0, "split a shard whose window answer share is at least this multiple of the per-shard mean (0 = default 2)")
	elasticMerge := flag.Float64("elastic-merge", 0, "merge the coldest shard when its pair's combined share is at most this multiple of the mean (0 = default 0.5)")
	elasticMax := flag.Int("elastic-max", 0, "shard-count ceiling for splits (0 = default 16)")
	elasticMinAns := flag.Int("elastic-min-answers", 0, "answers a detector window must hold before acting (0 = default 32)")
	demo := flag.Int("demo", 0, "pre-register a synthetic demo world with N workers (0 = start empty)")
	demoTasks := flag.Int("demo-tasks", 0, "demo world task count (0 = the 200-POI Beijing dataset; needs -demo)")
	seed := flag.Int64("seed", 7, "demo world / random assigner seed")
	ckpt := flag.String("checkpoint", "", "snapshot file enabling POST /checkpoint (empty = disabled)")
	ckptEvery := flag.Duration("checkpoint-interval", 0, "also auto-checkpoint at this interval (0 = manual only; needs -checkpoint)")
	restore := flag.String("restore", "", "restore state from this snapshot file at startup (engine flags must match)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "in-flight request drain budget on SIGTERM/SIGINT (0 = wait indefinitely)")
	traceOn := flag.Bool("trace", false, "request-scoped tracing: span trees on GET /debug/traces, IDs via X-Poilabel-Trace, poilabel_trace_* metrics")
	traceSlow := flag.Duration("trace-slow", 100*time.Millisecond, "root duration at or above which a trace is kept in the always-keep slow ring (needs -trace)")
	debugAddr := flag.String("debug-addr", "", "also serve net/http/pprof and runtime gauges on this address (empty = off)")
	flag.Parse()

	var elasticCfg *poilabel.ElasticConfig
	if *elastic {
		elasticCfg = &poilabel.ElasticConfig{
			CheckInterval: *elasticCheck,
			SplitRatio:    *elasticSplit,
			MergeRatio:    *elasticMerge,
			MaxShards:     *elasticMax,
			MinAnswers:    *elasticMinAns,
		}
	}

	var traceCfg *trace.Config
	if *traceOn {
		// A serving ring deeper than the library default: at a few thousand
		// requests/sec the default 256 recycles in a tenth of a second, too
		// fast for a client (or a human with curl) to catch an outlier it
		// just saw. 2048 keeps roughly a second of busy traffic inspectable
		// for a few MB of retained traces.
		traceCfg = &trace.Config{SlowThreshold: *traceSlow, RingSize: 2048}
	}

	if err := run(*addr, *engine, *shards, *cities, *budget, *h, *assigner, *fullEM, *bgFit, *bgMin, elasticCfg, *demo, *demoTasks, *seed,
		*ckpt, *ckptEvery, *restore, *shutdownTimeout, traceCfg, *debugAddr); err != nil {
		fmt.Fprintf(os.Stderr, "poiserve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, engine string, shards, cities, budget, h int, assigner string, fullEM int, bgFit time.Duration, bgMin int, elastic *poilabel.ElasticConfig, demo, demoTasks int, seed int64,
	ckptPath string, ckptEvery time.Duration, restorePath string, shutdownTimeout time.Duration, traceCfg *trace.Config, debugAddr string) error {
	var tracer *trace.Tracer
	if traceCfg != nil {
		tracer = trace.New(*traceCfg)
	}
	opts := []poilabel.ServiceOption{
		poilabel.WithBudget(budget),
		poilabel.WithTasksPerRequest(h),
		poilabel.WithFullEMInterval(fullEM),
		poilabel.WithSeed(seed),
		poilabel.WithShards(shards),
		poilabel.WithCities(cities),
	}
	if bgFit > 0 {
		opts = append(opts, poilabel.WithBackgroundFit(bgFit, bgMin))
	}
	if elastic != nil {
		opts = append(opts, poilabel.WithElasticShards(*elastic))
	}
	if tracer != nil {
		opts = append(opts, poilabel.WithTracer(tracer))
	}
	switch engine {
	case "single":
		opts = append(opts, poilabel.WithEngine(poilabel.EngineSingle))
	case "sharded":
		opts = append(opts, poilabel.WithEngine(poilabel.EngineSharded))
	case "federated":
		opts = append(opts, poilabel.WithEngine(poilabel.EngineFederated))
	default:
		return fmt.Errorf("unknown engine %q (want single, sharded, or federated)", engine)
	}
	switch assigner {
	case "accopt":
		opts = append(opts, poilabel.WithAssigner(poilabel.AssignerAccOpt))
	case "sf":
		opts = append(opts, poilabel.WithAssigner(poilabel.AssignerSpatialFirst))
	case "random":
		opts = append(opts, poilabel.WithAssigner(poilabel.AssignerRandom))
	default:
		return fmt.Errorf("unknown assigner %q (want accopt, sf, or random)", assigner)
	}

	if ckptEvery > 0 && ckptPath == "" {
		return fmt.Errorf("-checkpoint-interval needs -checkpoint")
	}

	svc, err := poilabel.NewService(opts...)
	if err != nil {
		return err
	}
	switch {
	case restorePath != "":
		if err := svc.LoadCheckpoint(restorePath); err != nil {
			return err
		}
		if demo > 0 {
			log.Printf("-restore given; skipping -demo seeding")
		}
		log.Printf("restored %s: %d tasks, %d workers, budget %d",
			restorePath, svc.NumTasks(), svc.NumWorkers(), svc.RemainingBudget())
	case demo > 0:
		if err := seedDemoWorld(svc, demoTasks, demo, seed); err != nil {
			return err
		}
		log.Printf("demo world registered: %d tasks, %d workers", svc.NumTasks(), svc.NumWorkers())
	}

	// Graceful shutdown: SIGTERM/SIGINT closes the listener, drains
	// in-flight requests, and (with -checkpoint) writes a final snapshot.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var serveOpts []serve.Option
	var ck *serve.Checkpointer
	if ckptPath != "" {
		ck = serve.NewCheckpointer(svc, ckptPath)
		serveOpts = append(serveOpts, serve.WithCheckpointer(ck))
		if ckptEvery > 0 {
			go ck.Run(ctx, ckptEvery)
			log.Printf("auto-checkpointing to %s every %s", ckptPath, ckptEvery)
		}
	}
	reg := metrics.NewRegistry()
	serveOpts = append(serveOpts, serve.WithMetrics(serve.NewMetrics(reg, svc)))
	if tracer != nil {
		tracer.RegisterMetrics(reg)
		serveOpts = append(serveOpts, serve.WithTracer(tracer))
		log.Printf("tracing on: GET /debug/traces, slow threshold %s", tracer.SlowThreshold())
	}
	if debugAddr != "" {
		serve.RegisterRuntimeMetrics(reg)
		go func() {
			log.Printf("debug server (pprof) listening on %s", debugAddr)
			if err := http.ListenAndServe(debugAddr, serve.DebugHandler()); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	log.Printf("poiserve listening on %s (engine %s, budget %d, h %d)", addr, engine, budget, h)
	err = serve.ListenAndServe(ctx, addr, serve.NewHandler(svc, serveOpts...), shutdownTimeout, ck, svc.Close)
	if err == nil {
		log.Printf("poiserve: drained and stopped")
	}
	return err
}

// seedDemoWorld registers the shared deterministic demo world
// (crowd.DemoWorld) so the server answers assignment and result queries out
// of the box — and so a load generator with the same seed can rebuild the
// identical world client-side. Task IDs are t0..tN-1, worker IDs w0..wM-1.
func seedDemoWorld(svc *poilabel.Service, numTasks, numWorkers int, seed int64) error {
	data, workers, _, err := crowd.DemoWorld(numTasks, numWorkers, seed)
	if err != nil {
		return err
	}
	for i, t := range data.Tasks {
		if err := svc.AddTask(fmt.Sprintf("t%d", i), poilabel.TaskSpec{
			Name:     t.Name,
			Location: t.Location,
			Labels:   t.Labels,
			Reviews:  t.Reviews,
		}); err != nil {
			return err
		}
	}
	for i, w := range workers {
		if err := svc.AddWorker(fmt.Sprintf("w%d", i), poilabel.WorkerSpec{
			Name:      w.Name,
			Locations: w.Locations,
		}); err != nil {
			return err
		}
	}
	return nil
}
