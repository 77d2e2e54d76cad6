package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment is recorded in every result file, so that two files can be
// told apart before their numbers are compared.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	StartedAt  string  `json:"started_at"`
}

// recordEnvironment also warns when the box is visibly busy.
func recordEnvironment(ctx context.Context) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	// A checkout without .git (the harness's) simply has no commit to name.
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // unparsable reads as 0, i.e. no warning
		}
	}
	if limit := 0.5 * float64(env.NumCPU); env.LoadAvg1 > limit {
		fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load average %.2f is above %.1f; something else is using this box\n", env.LoadAvg1, limit)
	}
	return env
}

// resultFile is what a full run writes and compare reads.
type resultFile struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Repeat  int         `json:"repeat"`
	Runs    []*report   `json:"runs"`
}

// runAll runs every workload untraced and traced, repeat times over (set k
// uses seed+k), interleaved so that no workload has all its runs in one
// stretch of the box's life, and writes one result file.
func runAll(ctx context.Context, seed int64, seconds float64, repeat int, outPath string) int {
	if outPath == "" {
		outPath = filepath.Join(outDir, "result.json")
	}
	res := resultFile{Env: recordEnvironment(ctx), Seed: seed, Seconds: seconds, Repeat: repeat}
	failed := false
	for k := 0; k < repeat; k++ {
		hashes := make(map[string]string)
		for _, traced := range []bool{false, true} {
			for _, name := range workloadNames {
				rep, err := runWorkload(ctx, name, seed+int64(k), seconds, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
					return 1
				}
				if prev, ok := hashes[name]; ok && prev != rep.ScheduleHash {
					rep.Failed++
					rep.Correct = false
					rep.Failures = append(rep.Failures, fmt.Sprintf("traced schedule %s differs from untraced %s", rep.ScheduleHash, prev))
				}
				hashes[name] = rep.ScheduleHash
				printReport(rep)
				res.Runs = append(res.Runs, rep)
				failed = failed || !rep.Correct
			}
		}
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(outPath), 0o755); err == nil {
			err = os.WriteFile(outPath, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: write %s: %v\n", outPath, err)
		return 1
	}
	fmt.Printf("result file: %s\n", outPath)
	if failed {
		return 1
	}
	return 0
}

// manifest is BENCHMARK.json, generated from the declarations the driver
// itself reports by, so the two cannot drift apart (a test compares them).
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []decl     `json:"end_to_end"`
		PerLayer   []decl     `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: referenceSeconds,
		EndToEnd:   endToEndDecl,
		PerLayer:   perLayerDecl,
	}
	for _, n := range workloadNames {
		m.Workloads = append(m.Workloads, workload{n, workloadWhy[n]})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func manifestMain() int {
	data, err := manifest()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	os.Stdout.Write(data)
	return 0
}

// compareMain is `benchmark compare A.json B.json`.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var files [2]resultFile
	for i, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 1
		}
	}
	rows, warnings := compare(files[0], files[1])
	for _, w := range warnings {
		fmt.Println("warning:", w)
	}
	printComparison(rows)
	for _, r := range rows {
		if r.Verdict == "worse" {
			return 1
		}
	}
	return 0
}
