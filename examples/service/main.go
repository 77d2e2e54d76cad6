// Service shows the one-front-door API: a concurrency-safe poilabel.Service
// with stable string IDs, dynamic registration, and the federated engine
// routing two cities' tasks to per-city sharded fitters behind one handle.
//
// Run with:
//
//	go run ./examples/service
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"poilabel"
)

func main() {
	// One service federated over two cities, two shards each, with a
	// paid-assignment budget: three rounds of 8 workers × 2 tasks. Every
	// round plans over all 24 tasks of both cities, so the budget, not the
	// task supply, ends the paid phase.
	svc, err := poilabel.NewService(
		poilabel.WithEngine(poilabel.EngineFederated),
		poilabel.WithCities(2),
		poilabel.WithShards(2),
		poilabel.WithBudget(48),
		poilabel.WithTasksPerRequest(2),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Two cities far apart: "north" around (0, 0), "south" around (100, 100).
	// Tasks and workers carry stable string IDs; the service interns them.
	truth := make(map[string][]bool)
	rng := rand.New(rand.NewSource(42))
	cities := []struct {
		name string
		base poilabel.Point
	}{
		{"north", poilabel.Pt(0, 0)},
		{"south", poilabel.Pt(100, 100)},
	}
	for _, city := range cities {
		c, base := city.name, city.base
		for i := 0; i < 12; i++ {
			id := fmt.Sprintf("%s/poi-%d", c, i)
			err := svc.AddTask(id, poilabel.TaskSpec{
				Name:     id,
				Location: poilabel.Pt(base.X+rng.Float64()*6, base.Y+rng.Float64()*6),
				Labels:   []string{"restaurant", "open-late", "kid-friendly"},
			})
			if err != nil {
				log.Fatal(err)
			}
			truth[id] = []bool{rng.Intn(2) == 0, true, false}
		}
		for j := 0; j < 4; j++ {
			id := fmt.Sprintf("%s/worker-%d", c, j)
			err := svc.AddWorker(id, poilabel.WorkerSpec{
				Name:      id,
				Locations: []poilabel.Point{poilabel.Pt(base.X+rng.Float64()*6, base.Y+rng.Float64()*6)},
			})
			if err != nil {
				log.Fatal(err)
			}
		}
	}

	// The paper's alternating protocol: request assignments, answer them.
	// Worker reliability: north/worker-3 and south/worker-3 are spammers.
	ctx := context.Background()
	arrive := svc.WorkerIDs()
	for round := 0; ; round++ {
		assigned, err := svc.RequestTasks(ctx, arrive)
		if errors.Is(err, poilabel.ErrBudgetExhausted) {
			fmt.Printf("budget exhausted after %d rounds\n", round)
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		n := 0
		ws := make([]string, 0, len(assigned))
		for w := range assigned {
			ws = append(ws, w)
		}
		sort.Strings(ws) // map order would make the toy crowd nondeterministic
		for _, w := range ws {
			tasks := assigned[w]
			reliable := 0.92
			if w == "north/worker-3" || w == "south/worker-3" {
				reliable = 0.5
			}
			for _, t := range tasks {
				votes := make([]bool, len(truth[t]))
				for k, v := range truth[t] {
					votes[k] = v
					if rng.Float64() > reliable {
						votes[k] = !v
					}
				}
				if err := svc.SubmitAnswer(w, t, votes); err != nil {
					log.Fatal(err)
				}
				n++
			}
		}
		if n == 0 {
			fmt.Printf("no assignable pairs left after %d rounds\n", round)
			break
		}
	}

	// Volunteers keep answering after the paid budget runs out:
	// unsolicited answers are learned from without touching the budget.
	for _, w := range svc.WorkerIDs() {
		reliable := 0.92
		if w == "north/worker-3" || w == "south/worker-3" {
			reliable = 0.5
		}
		// Registration order, not map order, so the run is reproducible.
		for _, tid := range svc.TaskIDs() {
			want, ok := truth[tid]
			if !ok || tid[:5] != w[:5] { // same city only
				continue
			}
			votes := make([]bool, len(want))
			for k, v := range want {
				votes[k] = v
				if rng.Float64() > reliable {
					votes[k] = !v
				}
			}
			// Duplicate (worker, task) submissions are rejected; skip pairs
			// already answered during the paid phase.
			if err := svc.SubmitAnswer(w, tid, votes); err != nil {
				continue
			}
		}
	}
	fmt.Printf("after unsolicited answers the budget is still %d\n", svc.RemainingBudget())

	// A new POI opens mid-deployment: register it on the fly — the
	// federation routes it to the nearest city and shard.
	if err := svc.AddTask("south/poi-new", poilabel.TaskSpec{
		Location: poilabel.Pt(103, 102),
		Labels:   []string{"restaurant", "open-late", "kid-friendly"},
	}); err != nil {
		log.Fatal(err)
	}
	svc.SubmitAnswer("south/worker-0", "south/poi-new", []bool{true, true, false})

	// Read the federation-wide inference and per-worker estimates.
	results, err := svc.Results(ctx)
	if err != nil {
		log.Fatal(err)
	}
	correct, total := 0, 0
	for _, r := range results {
		want, ok := truth[r.Task]
		if !ok {
			continue
		}
		for k := range want {
			total++
			if r.Inferred[k] == want[k] {
				correct++
			}
		}
	}
	fmt.Printf("inferred %d tasks, label accuracy %.0f%%\n", len(results), 100*float64(correct)/float64(total))

	for _, w := range []string{"north/worker-0", "north/worker-3"} {
		info, err := svc.WorkerInfo(w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s estimated quality %.2f\n", w, info.Quality)
	}
}
