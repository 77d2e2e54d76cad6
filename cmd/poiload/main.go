// Command poiload load-tests a poiserve endpoint with a simulated crowd —
// the closed-loop generator behind every requests/sec and p99 number this
// repository claims (internal/loadgen).
//
// Usage:
//
//	poiload [-addr 127.0.0.1:8080] [-workers N] [-rate R] [-duration D]
//	        [-warmup D] [-think D] [-model closed|open]
//	        [-scenario steady|surge|rolling-restart|drift] [-seed N]
//	        [-world-tasks N] [-world-workers N] [-json] [-append FILE -label L]
//	        [-serve-bin PATH [-engine E] [-shards K] [-cities N]
//	         [-budget N] [-fullem N] [-bg-fit D] [-bg-min-answers N]
//	         [-elastic [-elastic-check D] [-elastic-max K]] [-snap PATH]]
//	        [-max-error-rate F] [-trace]
//
// With -trace every request carries a client-minted X-Poilabel-Trace ID and
// the report's slowest measured requests are joined, by ID, with the server's
// span trees from GET /debug/traces — the top five print with a per-span
// breakdown of where the server spent the client's p99. A spawned server
// (-serve-bin) gets -trace forwarded automatically; a pre-started server
// must be running with it for the join to find anything.
//
// Two modes:
//
//   - Against an already-running server: point -addr at a poiserve started
//     with matching -demo/-demo-tasks/-seed flags so client and server
//     agree on the world, e.g.
//
//     poiserve -addr 127.0.0.1:8080 -demo 64 -seed 7 &
//     poiload  -addr 127.0.0.1:8080 -workers 64 -seed 7 -duration 30s
//
//   - Self-contained (-serve-bin): poiload boots, owns, and tears down the
//     poiserve process itself, deriving the server flags from its own, so
//     the worlds cannot drift. This is the only mode that supports
//     -scenario rolling-restart, which mid-run POSTs /checkpoint, sends
//     SIGTERM (graceful drain + final checkpoint), waits for exit,
//     restarts the server with -restore, and then asserts that not one
//     acknowledged answer was lost and the error rate stayed under
//     -max-error-rate. A violated assertion exits non-zero — this is the
//     check CI's load-smoke job runs.
//
// With -json the run's report is printed as JSON; -append FILE -label L
// inserts it into FILE's runs map instead (creating the file if needed),
// which is how BENCH_serve.json is assembled.
//
// -scenario drift shifts all traffic onto one quadrant's worker identities
// halfway through the measure phase — the workload that forces an elastic
// sharded server (-elastic, forwarded to the spawned poiserve along with its
// thresholds) to split its hot shard. The report carries pre/post-drift
// throughput separately. Wall-clock regressions are not gated here: the
// repository benchmark (benchmark/README.md) compares same-run pairs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"poilabel/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "poiload: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "server address (host:port)")
	workers := flag.Int("workers", 32, "closed-model concurrency / open-model identity pool")
	rate := flag.Float64("rate", 0, "open-model Poisson arrival rate, sessions/sec")
	duration := flag.Duration("duration", 30*time.Second, "measure phase length")
	warmup := flag.Duration("warmup", 2*time.Second, "warmup phase length (unrecorded)")
	think := flag.Duration("think", 10*time.Millisecond, "mean think time before each answer")
	modelStr := flag.String("model", "closed", "workload model: closed or open")
	scenarioStr := flag.String("scenario", "steady", "run shape: steady, surge, rolling-restart, or drift")
	seed := flag.Int64("seed", 7, "world + traffic seed; must match the server's -seed")
	worldTasks := flag.Int("world-tasks", 0, "demo world task count (0 = Beijing 200); must match server -demo-tasks")
	worldWorkers := flag.Int("world-workers", 0, "demo world worker count (0 = derived); must match server -demo")
	jsonOut := flag.Bool("json", false, "print the report as JSON")
	appendFile := flag.String("append", "", "insert the report into this JSON baseline file")
	label := flag.String("label", "", "run label for -append (default scenario-model-engine)")
	maxErrRate := flag.Float64("max-error-rate", 0.01, "fail when the error rate exceeds this")

	serveBin := flag.String("serve-bin", "", "poiserve binary: spawn and own the server (required for rolling-restart)")
	engine := flag.String("engine", "single", "spawned server engine: single, sharded, or federated")
	shards := flag.Int("shards", 0, "spawned server shards per city")
	cities := flag.Int("cities", 0, "spawned server city count")
	budget := flag.Int("budget", -1, "spawned server assignment budget")
	fullEM := flag.Int("fullem", 100, "spawned server full-fit interval")
	bgFit := flag.Duration("bg-fit", 0, "spawned server fit pipeline cadence (0 = fits run inline)")
	bgMin := flag.Int("bg-min-answers", 256, "spawned server eager background fit threshold (needs -bg-fit)")
	elastic := flag.Bool("elastic", false, "spawned server: drift-aware elastic re-sharding (needs -engine sharded and -bg-fit)")
	elasticCheck := flag.Duration("elastic-check", time.Second, "spawned server drift-detector tick (needs -elastic)")
	elasticMax := flag.Int("elastic-max", 0, "spawned server shard-count ceiling (0 = poiserve default)")
	snap := flag.String("snap", "", "spawned server checkpoint path (default: temp file)")
	traceOn := flag.Bool("trace", false, "stamp requests with X-Poilabel-Trace IDs and join the slowest with server span trees (server needs -trace; forwarded to a spawned server)")
	flag.Parse()

	model, err := loadgen.ParseModel(*modelStr)
	if err != nil {
		return err
	}
	scenario, err := loadgen.ParseScenario(*scenarioStr)
	if err != nil {
		return err
	}
	if *worldWorkers == 0 {
		*worldWorkers = loadgen.RequiredWorldWorkers(model, scenario, *workers)
	}
	baseURL := *addr
	if !strings.HasPrefix(baseURL, "http://") && !strings.HasPrefix(baseURL, "https://") {
		baseURL = "http://" + baseURL
	}

	cfg := loadgen.Config{
		BaseURL:      baseURL,
		Workers:      *workers,
		Rate:         *rate,
		Duration:     *duration,
		Warmup:       *warmup,
		Think:        *think,
		Model:        model,
		Scenario:     scenario,
		Seed:         *seed,
		WorldTasks:   *worldTasks,
		WorldWorkers: *worldWorkers,
		Trace:        *traceOn,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	var proc *serverProcess
	if *serveBin != "" {
		if *snap == "" {
			f, err := os.CreateTemp("", "poiload-*.snap")
			if err != nil {
				return err
			}
			f.Close()
			os.Remove(f.Name())
			*snap = f.Name()
			defer os.Remove(*snap)
		}
		// The background-fit flags ride along on both legs of a restart so a
		// rolling-restart run exercises the drain → final checkpoint →
		// restore path with the pipeline enabled.
		var bgArgs []string
		if *bgFit > 0 {
			bgArgs = []string{"-bg-fit", bgFit.String(), "-bg-min-answers", fmt.Sprint(*bgMin)}
		}
		if *elastic {
			bgArgs = append(bgArgs, "-elastic", "-elastic-check", elasticCheck.String())
			if *elasticMax > 0 {
				bgArgs = append(bgArgs, "-elastic-max", fmt.Sprint(*elasticMax))
			}
		}
		if *traceOn {
			bgArgs = append(bgArgs, "-trace")
		}
		proc = &serverProcess{
			bin:     *serveBin,
			addr:    *addr,
			baseURL: baseURL,
			startArgs: append([]string{
				"-addr", *addr, "-engine", *engine,
				"-shards", fmt.Sprint(*shards), "-cities", fmt.Sprint(*cities),
				"-budget", fmt.Sprint(*budget), "-fullem", fmt.Sprint(*fullEM),
				"-demo", fmt.Sprint(*worldWorkers), "-demo-tasks", fmt.Sprint(*worldTasks),
				"-seed", fmt.Sprint(*seed),
				"-checkpoint", *snap, "-shutdown-timeout", "15s",
			}, bgArgs...),
			restoreArgs: append([]string{
				"-addr", *addr, "-engine", *engine,
				"-shards", fmt.Sprint(*shards), "-cities", fmt.Sprint(*cities),
				"-fullem", fmt.Sprint(*fullEM), "-seed", fmt.Sprint(*seed),
				"-restore", *snap,
				"-checkpoint", *snap, "-shutdown-timeout", "15s",
			}, bgArgs...),
		}
		if err := proc.start(false); err != nil {
			return err
		}
		defer proc.stop()
		cfg.Restarter = proc
	} else if scenario == loadgen.ScenarioRollingRestart {
		return errors.New("-scenario rolling-restart needs -serve-bin (poiload must own the server process)")
	}

	rep, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	if proc != nil {
		proc.stop()
	}

	if *jsonOut || *appendFile == "" {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			printSummary(rep)
		}
	}
	if *appendFile != "" {
		l := *label
		if l == "" {
			l = fmt.Sprintf("%s-%s-%s", rep.Scenario, rep.Model, rep.Engine)
		}
		if err := appendBaseline(*appendFile, l, *seed, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "poiload: appended run %q to %s\n", l, *appendFile)
	}

	return assess(rep, scenario, *maxErrRate, proc != nil)
}

// assess turns report violations into a non-zero exit. Lost answers and
// error rate always gate; the counter match additionally gates runs where
// poiload owned the server (sole client, so exact agreement is required)
// and no restart blurred the ledger.
func assess(rep *loadgen.Report, scenario loadgen.Scenario, maxErrRate float64, owned bool) error {
	var problems []string
	if rep.LostAnswers > 0 {
		problems = append(problems, fmt.Sprintf("%d acknowledged answers lost", rep.LostAnswers))
	}
	if rep.ErrorRate > maxErrRate {
		problems = append(problems, fmt.Sprintf("error rate %.4f exceeds %.4f", rep.ErrorRate, maxErrRate))
	}
	if scenario == loadgen.ScenarioRollingRestart && rep.Restarts == 0 {
		problems = append(problems, "rolling-restart run performed no restart")
	}
	if scenario == loadgen.ScenarioDrift && rep.DriftAtSeconds <= 0 {
		problems = append(problems, "drift run never entered its post-drift phase")
	}
	if owned && rep.Restarts == 0 {
		if rep.Counters == nil {
			problems = append(problems, "no /metrics counter match available")
		} else if !rep.Counters.Match {
			problems = append(problems, fmt.Sprintf("client/server request counters disagree: %+v", *rep.Counters))
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

// printSummary renders the human-readable report.
func printSummary(rep *loadgen.Report) {
	fmt.Printf("scenario %s, model %s, engine %s: %d workers", rep.Scenario, rep.Model, rep.Engine, rep.Workers)
	if rep.RatePerS > 0 {
		fmt.Printf(", %.0f arrivals/s", rep.RatePerS)
	}
	fmt.Printf(", world %d tasks / %d workers\n", rep.WorldTasks, rep.WorldWorkers)
	fmt.Printf("measured %.1fs (+%.1fs warmup): %.0f req/s, %.0f answers/s, error rate %.4f\n",
		rep.MeasureSeconds, rep.WarmupSeconds, rep.ThroughputRPS, rep.AnswersPerS, rep.ErrorRate)
	if rep.DriftAtSeconds > 0 {
		fmt.Printf("drift at %.1fs: %.0f req/s before, %.0f req/s after\n",
			rep.DriftAtSeconds, rep.PreDriftRPS, rep.PostDriftRPS)
	}

	names := make([]string, 0, len(rep.Endpoints))
	for name := range rep.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-12s %10s %10s %10s %10s %10s\n", "endpoint", "count", "p50 ms", "p90 ms", "p99 ms", "max ms")
	for _, name := range names {
		st := rep.Endpoints[name]
		fmt.Printf("%-12s %10d %10.2f %10.2f %10.2f %10.2f\n",
			name, st.Count, st.P50Ms, st.P90Ms, st.P99Ms, st.MaxMs)
	}
	fmt.Printf("answers: %d acked, %d server-side, %d lost", rep.AnswersAcked, rep.ServerAnswers, rep.LostAnswers)
	if rep.Restarts > 0 {
		fmt.Printf(" (across %d restart(s), %d retries)", rep.Restarts, rep.Retries)
	}
	fmt.Println()
	if rep.Counters != nil {
		ok := "MATCH"
		if !rep.Counters.Match {
			ok = "MISMATCH"
		}
		fmt.Printf("counters: client %d/%d vs server %d/%d assignments/answers — %s\n",
			rep.Counters.ClientAssignments, rep.Counters.ClientAnswers,
			rep.Counters.ServerAssignments, rep.Counters.ServerAnswers, ok)
	}
	if len(rep.SlowTraces) > 0 {
		printSlowTraces(rep.SlowTraces, 5)
	}
}

// printSlowTraces renders the top n client-side latency outliers joined with
// their server-side span trees: per outlier, the client's measured latency,
// the trace ID, and an indented tree of where the server spent the time.
func printSlowTraces(joined []loadgen.JoinedTrace, n int) {
	fmt.Println("slowest traced requests (client-side), with server span trees:")
	for i, jt := range joined {
		if i == n {
			break
		}
		fmt.Printf("%3d. %-12s client %8.2fms  trace %s", i+1, jt.Endpoint, jt.ClientMS, jt.ID)
		if jt.Server == nil {
			fmt.Println("  (no longer retained server-side)")
			continue
		}
		fmt.Printf("  server %.2fms\n", jt.Server.DurationMS)
		// Spans are in mint order, so a parent always precedes its children
		// and the depths resolve in one pass.
		depth := make([]int, len(jt.Server.Spans))
		for j, sp := range jt.Server.Spans {
			if sp.Parent >= 0 {
				depth[j] = depth[sp.Parent] + 1
			}
			var b strings.Builder
			fmt.Fprintf(&b, "     %s%-20s %8.2fms", strings.Repeat("  ", depth[j]), sp.Name, sp.DurationMS)
			for _, a := range sp.Attrs {
				fmt.Fprintf(&b, " %s=%s", a.K, a.V)
			}
			if sp.Failed {
				fmt.Fprintf(&b, " FAILED")
				if sp.Error != "" {
					fmt.Fprintf(&b, " (%s)", sp.Error)
				}
			}
			fmt.Println(b.String())
		}
	}
}

// baseline is the BENCH_serve.json shape: the environment header the other
// BENCH baselines carry plus a labelled map of runs.
type baseline struct {
	Name        string                     `json:"name"`
	Seed        int64                      `json:"seed"`
	GoVersion   string                     `json:"go_version"`
	GOOS        string                     `json:"goos"`
	GOARCH      string                     `json:"goarch"`
	NumCPU      int                        `json:"num_cpu"`
	GeneratedAt string                     `json:"generated_at"`
	Runs        map[string]*loadgen.Report `json:"runs"`
}

// appendBaseline inserts a labelled run into the baseline file, creating it
// on first use and refreshing the environment header.
func appendBaseline(path, label string, seed int64, rep *loadgen.Report) error {
	b := baseline{Runs: map[string]*loadgen.Report{}}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &b); err != nil {
			return fmt.Errorf("existing baseline %s unreadable: %w", path, err)
		}
		if b.Runs == nil {
			b.Runs = map[string]*loadgen.Report{}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	b.Name = "serve"
	b.Seed = seed
	b.GoVersion = runtime.Version()
	b.GOOS = runtime.GOOS
	b.GOARCH = runtime.GOARCH
	b.NumCPU = runtime.NumCPU()
	b.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	b.Runs[label] = rep

	out, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// serverProcess owns a poiserve child process and implements
// loadgen.Restarter with the real thing: checkpoint, SIGTERM, wait, restart
// with -restore, wait for /healthz.
type serverProcess struct {
	bin         string
	addr        string
	baseURL     string
	startArgs   []string
	restoreArgs []string
	cmd         *exec.Cmd
}

func (p *serverProcess) start(restore bool) error {
	args := p.startArgs
	if restore {
		args = p.restoreArgs
	}
	cmd := exec.Command(p.bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.bin, err)
	}
	p.cmd = cmd
	if err := p.awaitHealthy(20 * time.Second); err != nil {
		p.stop()
		return err
	}
	return nil
}

func (p *serverProcess) awaitHealthy(within time.Duration) error {
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not healthy within %s", p.baseURL, within)
}

// Restart implements loadgen.Restarter.
func (p *serverProcess) Restart(ctx context.Context) error {
	// Belt: an explicit checkpoint before the signal. Suspenders: the
	// graceful SIGTERM path drains in-flight requests and writes a final
	// checkpoint of its own, which is what actually guarantees nothing
	// acknowledged after this POST is lost.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.baseURL+"/checkpoint", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	} else if ctx.Err() != nil {
		return ctx.Err()
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := p.waitExit(30 * time.Second); err != nil {
		return err
	}
	return p.start(true)
}

func (p *serverProcess) waitExit(within time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
		return nil // exit status irrelevant; the checkpoint already landed
	case <-time.After(within):
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("server did not drain within %s; killed", within)
	}
}

func (p *serverProcess) stop() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	p.waitExit(20 * time.Second)
	p.cmd = nil
}
