package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"poilabel"
	"poilabel/internal/assign"
	"poilabel/internal/core"
	"poilabel/internal/federation"
	"poilabel/internal/geo"
	"poilabel/internal/model"
	"poilabel/internal/shard"
	"poilabel/internal/snapshot"
)

// Layer probes. serve.NewHandler takes a concrete *poilabel.Service and the
// engines are unexported, so nothing below the handler can be interposed on
// live traffic without editing the program. A traced run therefore pauses
// traffic at the probe points and times the layers directly: the service
// layer on a shadow service restored from a checkpoint of the live one (the
// live ledger is never touched), and the packages underneath on state rebuilt
// from the driver's own log of acknowledged answers.

const (
	probeCalls   = 20  // single calls behind each p50
	probeUpdates = 200 // incremental updates per probe
)

type prober struct {
	ctx   context.Context
	s     spec
	w     *world
	rec   *recorder
	ids   []model.WorkerID // rotation of identities the probes ask for
	layer map[string]float64
}

func newProber(ctx context.Context, s spec, w *world, seed int64, rec *recorder) *prober {
	order := schedule(seed+17, len(w.workerIDs), allIdentities(len(w.workerIDs)), nil, 0, 0, 0, 0)
	ids := make([]model.WorkerID, len(order))
	for i, o := range order {
		ids[i] = model.WorkerID(o.Worker)
	}
	return &prober{ctx: ctx, s: s, w: w, rec: rec, ids: ids, layer: make(map[string]float64)}
}

// at probes every layer with traffic paused after the given share of the
// schedule. The metrics of the latest point win; every point's spans stay in
// the trace file.
func (p *prober) at(share float64, live *poilabel.Service, log []model.Answer) error {
	root := p.rec.open(fmt.Sprintf("probe@%d", int(share*100)), time.Now(), 0)
	defer func() { p.rec.close(root, time.Now()) }()
	if err := p.service(root, live); err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	m, err := p.core(root, log)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	p.assign(root, m)
	p.snapshot(root, m)
	if err := p.shard(root, m, log); err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	if err := p.federation(root, m, log); err != nil {
		return fmt.Errorf("federation probe: %w", err)
	}
	return nil
}

// p50 times fn n times under name and returns the median duration.
func (p *prober) p50(name string, root, n int, fn func(i int)) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(p.rec.probe(name, root, func() { fn(i) }))
	}
	return time.Duration(median(ds))
}

// service times direct calls on a shadow of the live service.
func (p *prober) service(root int, live *poilabel.Service) error {
	var snap bytes.Buffer
	var err error
	// Staged and committed at the end: a probe point that finds the budget
	// spent keeps the previous point's numbers.
	layer := make(map[string]float64)
	layer["service.checkpoint_s"] = p.rec.probe("service.checkpoint", root, func() { err = live.Checkpoint(&snap) }).Seconds()
	if err != nil {
		return err
	}
	opts := p.s.options()
	if p.s.loop == loopBatch {
		opts = serviceBase(p.s.budget)
	}
	shadow, err := poilabel.NewService(opts...)
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(p.ctx, 5*time.Second)
		defer cancel()
		_ = shadow.Close(ctx) // the shadow is discarded; an unfinished fit is of no interest
	}()
	layer["service.restore_s"] = p.rec.probe("service.restore", root, func() { err = shadow.Restore(&snap) }).Seconds()
	if err != nil {
		return err
	}

	ask := 1
	if p.s.loop == loopBatch {
		ask = roundWorkers
	}
	type pair struct{ wi, ti int }
	var pairs []pair
	call := 0
	request := func(n int) ([]pair, error) {
		ids := make([]string, n)
		wis := make([]int, n)
		for i := range ids {
			wis[i] = int(p.ids[call%len(p.ids)])
			ids[i] = p.w.workerIDs[wis[i]]
			call++
		}
		got, err := shadow.RequestTasks(p.ctx, ids)
		var out []pair
		for i, id := range ids {
			for _, t := range got[id] {
				out = append(out, pair{wis[i], p.w.taskIdx[t]})
			}
		}
		return out, err
	}
	var reqErr error
	// An untimed pass first: the identities' candidate lists are warm on the
	// live service (each is rebuilt once per published generation and then
	// asked ten times), and cold on a freshly restored shadow.
	for i := 0; i < probeCalls; i++ {
		got, err := request(ask)
		if err != nil {
			reqErr = err
		}
		pairs = append(pairs, got...)
	}
	call = 0
	layer["service.request_tasks_p50_ms"] = ms(p.p50("service.request_tasks", root, probeCalls, func(int) {
		got, err := request(ask)
		if err != nil && reqErr == nil {
			reqErr = err
		}
		pairs = append(pairs, got...)
	}))
	more, err := request(len(p.w.workerIDs))
	if reqErr == nil {
		reqErr = err
	}
	if errors.Is(reqErr, poilabel.ErrBudgetExhausted) {
		return nil
	}
	if reqErr != nil {
		return reqErr
	}
	pairs = append(pairs, more...)
	submit := func(pr pair) error {
		return shadow.SubmitAnswer(p.w.workerIDs[pr.wi], p.w.taskIDs[pr.ti], p.w.probeAnswer(pr.wi, pr.ti).Selected)
	}
	half := len(pairs) / 2
	var subErr error
	solo := p.p50("service.submit_answer", root, half, func(i int) {
		if err := submit(pairs[i]); err != nil && subErr == nil {
			subErr = err
		}
	})
	layer["service.submit_answer_p50_us"] = us(solo)
	// Two goroutines submit the other half: per-answer wall time against the
	// solo p50 shows what Service.mu costs under contention (0.5 = scales
	// perfectly, 1 = serialized).
	rest := pairs[half:]
	var mu sync.Mutex
	duo := p.rec.probe("service.submit_answer_2x", root, func() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(rest); i += 2 {
					if err := submit(rest[i]); err != nil {
						mu.Lock()
						if subErr == nil {
							subErr = err
						}
						mu.Unlock()
					}
				}
			}(g)
		}
		wg.Wait()
	})
	if subErr != nil {
		return subErr
	}
	if solo > 0 {
		layer["service.submit_answer_2x_ratio"] = float64(duo) / float64(len(rest)) / float64(solo)
	}
	layer["service.results_p50_ms"] = ms(p.p50("service.results", root, 5, func(int) {
		if _, e := shadow.Results(p.ctx); e != nil && err == nil {
			err = e
		}
	}))
	layer["service.worker_info_p50_us"] = us(p.p50("service.worker_info", root, probeCalls, func(i int) {
		if _, e := shadow.WorkerInfo(p.w.workerIDs[p.ids[i%len(p.ids)]]); e != nil && err == nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	for k, x := range layer {
		p.layer[k] = x
	}
	return nil
}

// normalizer reproduces the one the service derives from the registered
// locations.
func (p *prober) normalizer() geo.Normalizer {
	var pts []geo.Point
	for _, t := range p.w.data.Tasks {
		pts = append(pts, t.Location)
	}
	for _, wk := range p.w.workers {
		pts = append(pts, wk.Locations...)
	}
	return geo.NewNormalizer(geo.Bound(pts).Diameter())
}

// core replays the log into a bare model and times its public operations.
func (p *prober) core(root int, log []model.Answer) (*core.Model, error) {
	m, err := core.NewModel(p.w.data.Tasks, p.w.workers, p.normalizer(), core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// One span for the whole replay; the per-call median is timed without
	// spans, there are as many calls as answers.
	obs := make([]float64, 0, len(log))
	var oerr error
	p.rec.probe("core.observe_all", root, func() {
		for _, a := range log {
			start := time.Now()
			if oerr = m.Observe(a); oerr != nil {
				return
			}
			obs = append(obs, float64(time.Since(start)))
		}
	})
	if oerr != nil {
		return nil, oerr
	}
	p.layer["core.observe_p50_us"] = us(time.Duration(median(obs)))
	var st core.FitStats
	p.layer["core.fit_s"] = p.rec.probe("core.fit", root, func() { st = m.Fit() }).Seconds()
	p.layer["core.fit_iters"] = float64(st.Iterations)
	if n := len(st.LogLikTrace); n > 0 {
		p.layer["core.loglik"] = st.LogLikTrace[n-1]
	}
	// Incremental updates on pairs the log does not hold.
	var fresh []model.Answer
	for i := 0; len(fresh) < probeUpdates && i < len(p.ids)*len(p.w.taskIDs); i++ {
		wi, ti := p.ids[i%len(p.ids)], model.TaskID((i*7919)%len(p.w.taskIDs))
		if !m.HasAnswer(wi, ti) {
			fresh = append(fresh, p.w.probeAnswer(int(wi), int(ti)))
		}
	}
	var uerr error
	p.layer["core.update_p50_us"] = us(p.p50("core.update", root, len(fresh), func(i int) {
		if err := m.Update(fresh[i]); err != nil && uerr == nil {
			uerr = err
		}
	}))
	if uerr != nil {
		return nil, uerr
	}
	p.layer["core.result_ms"] = ms(p.rec.probe("core.result", root, func() { m.Result() }))
	p.layer["core.publish_ms"] = ms(p.rec.probe("core.publish", root, func() { m.Publish() }))
	return m, nil
}

// assign times planning against the fitted model: snapshot capture, cold and
// warm candidate-list plans, and the locked planner's ten-worker round.
func (p *prober) assign(root int, m *core.Model) {
	var snap *assign.Snapshot
	p.layer["assign.snapshot_ms"] = ms(p.rec.probe("assign.snapshot", root, func() { snap = assign.SnapshotModel(m) }))
	cands := assign.NewCandidates(0)
	const gen = 1
	plan := func(i int) { cands.PlanWorker(snap, gen, p.ids[i%len(p.ids)], tasksPerRequest, nil) }
	p.layer["assign.plan_cold_ms"] = ms(p.p50("assign.plan_cold", root, probeCalls, plan))
	p.layer["assign.plan_warm_us"] = us(p.p50("assign.plan_warm", root, probeCalls, plan))
	// A new generation drops every list; Warm rebuilds the cohort that had
	// one.
	p.layer["assign.warm_all_ms"] = ms(p.rec.probe("assign.warm", root, func() { cands.Warm(snap, gen+1) }))
	st := cands.Stats()
	if total := st.Hits + st.Builds + st.Rebuilds; total > 0 {
		p.layer["assign.candidate_hit_ratio"] = float64(st.Hits) / float64(total)
	}
	planner := assign.NewPlanner()
	p.layer["assign.round10_ms"] = ms(p.p50("assign.round10", root, 5, func(i int) {
		planner.AssignExcluding(m, p.round(i), tasksPerRequest, nil)
	}))
}

// round returns the i-th group of ten identities.
func (p *prober) round(i int) []model.WorkerID {
	out := make([]model.WorkerID, roundWorkers)
	for k := range out {
		out[k] = p.ids[(i*roundWorkers+k)%len(p.ids)]
	}
	return out
}

// snapshot times the checkpoint codec on the fitted model's state.
func (p *prober) snapshot(root int, m *core.Model) {
	var st *snapshot.ModelState
	p.layer["snapshot.capture_ms"] = ms(p.rec.probe("snapshot.capture", root, func() { st = m.CheckpointState() }))
	var buf bytes.Buffer
	var err error
	p.layer["snapshot.encode_s"] = p.rec.probe("snapshot.encode", root, func() {
		err = snapshot.Encode(&buf, snapshot.New(snapshot.ServiceState{Engine: "single", EngineBuilt: true, Budget: -1, Single: st}))
	}).Seconds()
	p.layer["snapshot.bytes"] = float64(buf.Len())
	if err == nil {
		p.layer["snapshot.decode_s"] = p.rec.probe("snapshot.decode", root, func() { _, err = snapshot.Decode(&buf) }).Seconds()
	}
	if err != nil {
		// The codec rejecting its own output is a finding, not a reason to
		// lose the rest of the run.
		p.layer["snapshot.decode_s"] = 0
	}
}

// shard replays the log into a four-shard fitter and times routing, the
// concurrent fit, the coordinator's round and a split-and-rebuild.
func (p *prober) shard(root int, m *core.Model, log []model.Answer) error {
	sh, err := shard.New(p.w.data.Tasks, p.w.workers, m.Normalizer(), shard.Config{Shards: 4, Model: core.DefaultConfig()})
	if err != nil {
		return err
	}
	obs := make([]float64, 0, len(log))
	p.rec.probe("shard.observe_all", root, func() {
		for _, a := range log {
			start := time.Now()
			if err = sh.Observe(a); err != nil {
				return
			}
			obs = append(obs, float64(time.Since(start)))
		}
	})
	if err != nil {
		return err
	}
	p.layer["shard.observe_p50_us"] = us(time.Duration(median(obs)))
	var fst shard.FitStats
	p.layer["shard.fit_s"] = p.rec.probe("shard.fit", root, func() { fst = sh.Fit() }).Seconds()
	p.layer["shard.fit_iters"] = float64(fst.Iterations)
	coord := shard.NewCoordinator(sh)
	p.layer["shard.coordinator_round_ms"] = ms(p.p50("shard.coordinator_round", root, 5, func(i int) {
		coord.AssignExcluding(p.round(i), tasksPerRequest, -1, nil)
	}))
	stats := sh.Stats()
	hot, total := 0, 0
	for si, st := range stats {
		total += st.Answers
		if st.Answers > stats[hot].Answers {
			hot = si
		}
	}
	if total > 0 {
		p.layer["shard.hot_shard_share"] = float64(stats[hot].Answers) / float64(total)
	}
	pts := make([]geo.Point, len(p.w.data.Tasks))
	for i, t := range p.w.data.Tasks {
		pts[i] = t.Location
	}
	p.layer["shard.rebuild_s"] = p.rec.probe("shard.rebuild", root, func() {
		var layout [][]int
		if layout, err = shard.SplitLayout(pts, sh.Partition(), hot); err == nil {
			_, err = sh.Rebuild(layout)
		}
	}).Seconds()
	return err
}

// federation replays the log into a 2-city x 2-shard federation.
func (p *prober) federation(root int, m *core.Model, log []model.Answer) error {
	fed, err := federation.New(p.w.data.Tasks, p.w.workers, m.Normalizer(), federation.Config{
		Cities: 2, Shard: shard.Config{Shards: 2, Model: core.DefaultConfig()},
	})
	if err != nil {
		return err
	}
	for _, a := range log {
		if err := fed.Observe(a); err != nil {
			return err
		}
	}
	var fst federation.FitStats
	p.layer["federation.fit_s"] = p.rec.probe("federation.fit", root, func() { fst = fed.Fit() }).Seconds()
	// The deepest city's critical path, as shard.FitStats counts a shard's.
	iters := 0
	for _, c := range fst.Cities {
		iters = max(iters, c.Iterations)
	}
	p.layer["federation.fit_iters"] = float64(iters)
	p.layer["federation.assign_round_ms"] = ms(p.p50("federation.assign_round", root, 5, func(i int) {
		fed.Assign(p.round(i), tasksPerRequest, -1, nil)
	}))
	return nil
}
