package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"poilabel"
)

const (
	batchSetupReps = 15
	// batchFits is how many explicit fits the collect phase runs, evenly
	// spaced over the budget (the paper refits between assignment rounds;
	// one fit per round would measure nothing but EM).
	batchFits = 6
	// batchReadsPerCycle: an in-process Results call is half a millisecond;
	// it takes more of them than of the HTTP ones for a steady median.
	batchReadsPerCycle = 9
)

// runBatch is the paper's alternating protocol with no server in between:
// ten workers ask, the service assigns, the simulated workers answer, and
// the service refits every so often, until the budget is spent.
func runBatch(ctx context.Context, s spec, w *world, seed int64, rec *recorder, pr *prober) (*outcome, *after, error) {
	out := newOutcome()

	var setups []float64
	var svc *poilabel.Service
	for rep := 0; rep < batchSetupReps; rep++ {
		var err error
		// Registered is not yet usable: the engine is built on first use, and
		// a fit of nothing is the cheapest first use.
		d := timed(func() {
			if svc, err = freshService(w, s.budget, poilabel.WithEngine(poilabel.EngineSingle)); err == nil {
				_, err = svc.Fit(ctx)
			}
		})
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	out.setupS = median(setups)

	order := schedule(seed, s.budget, allIdentities(len(w.workerIDs)), nil, 0, 0, 0, 0)
	out.scheduleHash = hashSchedule(order)
	warm := int(warmupShare * float64(s.budget))
	fitEvery := max(1, s.budget/batchFits)
	handed := make(map[[2]int]bool, s.budget)
	root := -1
	if rec != nil {
		root = rec.open("batch.collect", time.Now(), 0)
	}

	var measureStart time.Time
	trafficStart := time.Now()
	var ackedAtWarm int
	var paused time.Duration // spent in layer probes, after the warm-up
	probeAt := 0             // next probe point
	next := 0
	for out.acked < s.budget {
		if pr != nil && probeAt < len(probePoints)-1 && float64(out.acked) >= probePoints[probeAt]*float64(s.budget) {
			start := time.Now()
			if err := pr.at(probePoints[probeAt], svc, out.log); err != nil {
				return nil, nil, err
			}
			paused += time.Since(start)
			probeAt++
		}
		if measureStart.IsZero() && out.acked >= warm {
			measureStart, ackedAtWarm = time.Now(), out.acked
		}
		measured := !measureStart.IsZero()
		ids := make([]string, roundWorkers)
		idx := make(map[string]int, roundWorkers)
		for i := range ids {
			wi := order[next%len(order)].Worker
			next++
			ids[i], idx[w.workerIDs[wi]] = w.workerIDs[wi], wi
		}
		var assigned map[string][]string
		var err error
		start := time.Now()
		assigned, err = svc.RequestTasks(ctx, ids)
		end := time.Now()
		rec.add("client.assign", start, end, root, 0)
		out.attempted++
		out.sessions++
		if errors.Is(err, poilabel.ErrBudgetExhausted) {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("assignment round: %w", err)
		}
		if measured {
			out.assignMS = append(out.assignMS, ms(end.Sub(start)))
		}
		got := 0
		for _, id := range ids {
			wi := idx[id]
			for _, tid := range assigned[id] {
				ti, ok := w.taskIdx[tid]
				if !ok || handed[[2]int{wi, ti}] {
					out.fail("pair (%s,%s) unknown or handed out twice", id, tid)
					continue
				}
				handed[[2]int{wi, ti}] = true
				got++
				a := w.answer(wi, ti)
				start := time.Now()
				err := svc.SubmitAnswer(id, tid, a.Selected)
				end := time.Now()
				rec.add("client.answer", start, end, root, 0)
				out.attempted++
				if err != nil {
					out.fail("answer (%s,%s): %v", id, tid, err)
					continue
				}
				if measured {
					out.answerMS = append(out.answerMS, ms(end.Sub(start)))
				}
				out.log = append(out.log, a)
				out.acked++
				if out.acked%fitEvery == 0 && out.acked < s.budget {
					d := rec.probe("client.fit", root, func() { _, err = svc.Fit(ctx) })
					if err != nil {
						return nil, nil, fmt.Errorf("fit: %w", err)
					}
					out.fitSeconds = append(out.fitSeconds, d.Seconds())
				}
			}
		}
		out.handed += got
		if got == 0 {
			out.emptyAssigns++
		}
	}
	trafficEnd := time.Now()
	if rec != nil {
		rec.close(root, trafficEnd)
	}
	if measureStart.IsZero() {
		return nil, nil, fmt.Errorf("collect ended after %d answers, before its measured phase", out.acked)
	}
	out.measuredS = (trafficEnd.Sub(measureStart) - paused).Seconds()
	out.trafficS = (trafficEnd.Sub(trafficStart) - paused).Seconds()
	out.answersPerS = float64(out.acked-ackedAtWarm) / out.measuredS
	out.lateAnswersPerS = out.answersPerS // no drift in batch: everything measured is "after" it

	if pr != nil {
		if err := pr.at(1, svc, out.log); err != nil {
			return nil, nil, err
		}
	}

	// Final fit and the labels; the timed reads come with the tail.
	if _, err := svc.Fit(ctx); err != nil {
		return nil, nil, fmt.Errorf("final fit: %w", err)
	}
	results, err := svc.Results(ctx)
	if err != nil {
		return nil, nil, err
	}
	if out.accuracy, err = w.accuracy(results); err != nil {
		return nil, nil, err
	}

	// The ledger: every acked answer counted once, budget spent equals pairs
	// committed, nothing left pending.
	h := svc.Health()
	if h.Answers != out.acked {
		out.fail("service holds %d answers, driver had %d acknowledged", h.Answers, out.acked)
	}
	if spent := s.budget - h.RemainingBudget; spent != out.handed {
		out.fail("budget spent %d, pairs handed out %d", spent, out.handed)
	}
	if h.Pending != 0 {
		out.fail("%d pairs still pending after every hand-out was answered", h.Pending)
	}
	return out, &after{
		each: func() error {
			return out.readSettled(batchReadsPerCycle, func() (d time.Duration, err error) {
				d = timed(func() { _, err = svc.Results(ctx) })
				return d, err
			})
		},
		// The driver is the program under test here; its peak includes the
		// replay tail.
		close: func() error {
			var err error
			out.peakRSSMB, err = peakRSSMB(os.Getpid())
			return err
		},
	}, nil
}
