package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// short sizes a workload at a twentieth of its world for a one-second run:
// small enough for the test suite, with the same answers per task as the real
// thing so the accuracy gate still means something.
func short(t *testing.T, name string) spec {
	t.Helper()
	s, err := newSpec(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.tasks /= 20
	return s
}

func TestManifestIsBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCHMARK.json is not what `go run ./benchmark manifest` prints; regenerate it")
	}
}

// TestManifestMeetsContract checks the limits the harness refuses a
// BENCHMARK.json over.
func TestManifestMeetsContract(t *testing.T) {
	data, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(data))
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
		}
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		check(d.Name)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}

// TestSeedDecidesInputs: the same seed gives the same world, sessions, due
// times and answers; another seed gives other sessions and answers.
func TestSeedDecidesInputs(t *testing.T) {
	build := func(seed int64) (*world, []session, []bool) {
		w, err := newWorld(200, numWorkers, seed)
		if err != nil {
			t.Fatal(err)
		}
		sessions := schedule(seed, 500, allIdentities(numWorkers), w.hotQuadrant(), 250, openRatePerSec, openResultsEvery, openInfoEvery)
		var votes []bool
		for i := 0; i < 50; i++ {
			votes = append(votes, w.answer(i%numWorkers, i%200).Selected...)
		}
		return w, sessions, votes
	}
	w1, s1, v1 := build(3)
	w2, s2, v2 := build(3)
	if !reflect.DeepEqual(w1.data, w2.data) || !reflect.DeepEqual(w1.workers, w2.workers) {
		t.Error("same seed, different world")
	}
	if !reflect.DeepEqual(s1, s2) || hashSchedule(s1) != hashSchedule(s2) || !reflect.DeepEqual(v1, v2) {
		t.Error("same seed, different sessions or answers")
	}
	_, s3, v3 := build(4)
	if hashSchedule(s1) == hashSchedule(s3) || reflect.DeepEqual(v1, v3) {
		t.Error("another seed, same sessions or answers")
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].Due < s1[i-1].Due {
			t.Fatalf("due times go backwards at session %d", i)
		}
	}
	hot := make(map[int]bool)
	for _, wi := range w1.hotQuadrant() {
		hot[wi] = true
	}
	for i, s := range s1 {
		if i >= 250 && !hot[s.Worker] {
			t.Fatalf("session %d after the drift comes from identity %d outside the hot quadrant", i, s.Worker)
		}
	}
	// Every identity is visited before any is visited again.
	seen := make(map[int]bool)
	for _, s := range s1[:numWorkers] {
		seen[s.Worker] = true
	}
	if len(seen) != numWorkers {
		t.Errorf("first %d sessions visit %d identities", numWorkers, len(seen))
	}
}

// TestShortPass runs every workload at a twentieth of its size, untraced and
// traced: every check of the correctness gate has to hold, every declared
// metric has to be reported, and both modes have to issue one schedule.
func TestShortPass(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	outDir = t.TempDir()
	for _, name := range workloadNames {
		hashes := make(map[bool]string)
		for _, traced := range []bool{false, true} {
			rep, err := runSpec(ctx, short(t, name), 5, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s traced=%v: %d failed: %v", name, traced, rep.Failed, rep.Failures)
			}
			decls := endToEndDecl
			if traced {
				decls = perLayerDecl
			}
			if len(rep.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", name, traced, len(rep.Metrics), len(decls))
			}
			for _, d := range decls {
				v, ok := rep.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || (!traced && v.Value <= 0) {
					t.Errorf("%s traced=%v: metric %s reads %+v (reported %v)", name, traced, d.Name, v, ok)
				}
			}
			if traced {
				if _, err := os.Stat(rep.TraceFile); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
			hashes[traced] = rep.ScheduleHash
		}
		if hashes[false] != hashes[true] {
			t.Errorf("%s: traced schedule %s, untraced %s", name, hashes[true], hashes[false])
		}
	}
}

// TestFlagsMatchOptions: the poiserve flags of a workload and the
// ServiceOptions of its traced twin configure the same server, as far as
// /healthz shows it.
func TestFlagsMatchOptions(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	bin, err := buildServer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames[:3] {
		s := short(t, name)
		w, err := newWorld(s.tasks, numWorkers, 1)
		if err != nil {
			t.Fatal(err)
		}
		var seen [2]*health
		for i, rec := range []*recorder{nil, newRecorder()} {
			var tgt *target
			if rec == nil {
				tgt, err = spawn(ctx, bin, s)
			} else {
				tgt, err = inProcess(s, rec)
			}
			if err != nil {
				t.Fatal(err)
			}
			c := newClient(tgt.base, connections(), rec)
			err = c.register(ctx, w)
			if err == nil {
				// One assignment builds the engine, so the sections that
				// describe it appear.
				_, err = c.do(ctx, "", "POST", "/assignments", assignRequest{Workers: []string{"w0"}})
			}
			if err == nil {
				seen[i], err = c.health(ctx)
			}
			c.close()
			tgt.stop()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		// Counters move with the background pipeline's timing; the
		// configuration does not.
		for _, h := range seen {
			if h.Fit != nil {
				h.Fit.Fits, h.Fit.Coalesced, h.Fit.CoveredAnswers, h.Fit.InFlight, h.Fit.QueueDepth = 0, 0, 0, false, 0
			}
			if h.Plan != nil {
				h.Plan.CandidateBuilds, h.Plan.CandidateHits, h.Plan.CandidateRebuilds = 0, 0, 0
			}
		}
		if !reflect.DeepEqual(seen[0], seen[1]) {
			a, _ := json.Marshal(seen[0])
			b, _ := json.Marshal(seen[1])
			t.Errorf("%s: spawned server reports\n%s\nin-process server reports\n%s", name, a, b)
		}
	}
}

func TestConnectionsWithinProcessors(t *testing.T) {
	if n := connections(); n < 1 || n > 2 {
		t.Errorf("%d connections", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(med-13.5) > 1e-12 || math.Abs(q3-31) > 1e-12 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(c float64) side { return newSide([]float64{c * 0.99, c, c * 1.01, c, c * 1.005}) }
	noisy := func(c float64) side { return newSide([]float64{c * 0.7, c * 0.85, c, c * 1.15, c * 1.3}) }
	cases := []struct {
		a, b   side
		better string
		want   string
	}{
		{steady(10), steady(10.2), lower, "same"},
		{steady(10), steady(12), lower, "worse"},
		{steady(10), steady(8), lower, "better"},
		{steady(10), steady(12), higher, "better"},
		{steady(10), steady(8), higher, "worse"},
		{noisy(10), noisy(11), lower, "unresolved"},
		{noisy(10), noisy(30), lower, "worse"},
		{noisy(10), noisy(3), lower, "better"},
		{newSide([]float64{10}), newSide([]float64{20}), lower, "unresolved"},
		{newSide([]float64{10}), newSide([]float64{10.5}), lower, "same"},
	}
	for i, c := range cases {
		if got := verdict(c.a, c.b, c.better, 0.10, false); got != c.want {
			t.Errorf("case %d: verdict %s, want %s", i, got, c.want)
		}
	}
	// An absolute bound: 0.83 -> 0.821 is 0.009 down, within 0.01, though it
	// is 1.1 % of the parent's median; 0.83 -> 0.815 is not.
	acc := func(c float64) side { return newSide([]float64{c - 0.001, c, c + 0.001, c, c + 0.0005}) }
	if got := verdict(acc(0.83), acc(0.821), higher, 0.01, true); got != "same" {
		t.Errorf("absolute bound, 0.009 down: verdict %s, want same", got)
	}
	if got := verdict(acc(0.83), acc(0.821), higher, 0.01, false); got != "worse" {
		t.Errorf("relative bound, 1.1 %% down: verdict %s, want worse", got)
	}
	if got := verdict(acc(0.83), acc(0.815), higher, 0.01, true); got != "worse" {
		t.Errorf("absolute bound, 0.015 down: verdict %s, want worse", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder()
	t0 := r.t0
	root := r.open("client.assign", t0, 7)
	r.add("serve.assign", t0.Add(2*time.Millisecond), t0.Add(7*time.Millisecond), -1, 7)
	r.close(root, t0.Add(10*time.Millisecond))
	self, total := r.selfTimes()
	if got := self["client.assign"]; len(got) != 1 || math.Abs(got[0]-5) > 1e-9 {
		t.Errorf("client self time %v ms, want 5", got)
	}
	if math.Abs(total["serve.assign"]-5) > 1e-9 || r.spans[1].Parent != root {
		t.Errorf("server span total %v ms, parent %d", total["serve.assign"], r.spans[1].Parent)
	}
}
