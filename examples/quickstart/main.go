// Quickstart shows the minimal end-to-end use of the public poilabel API:
// define POI tasks and workers, run the alternating assign/answer loop with
// a toy crowd, and read the inferred labels.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"math/rand"

	"poilabel"
)

func main() {
	// Three POIs in a small city grid, each with three candidate labels, and
	// the (hidden) true labels, used here only to script the toy crowd.
	pois := []struct {
		id    string
		spec  poilabel.TaskSpec
		truth []bool
	}{
		{"Olympic Forest Park", poilabel.TaskSpec{Location: poilabel.Pt(2, 8),
			Labels: []string{"park", "olympics", "business"}}, []bool{true, true, false}},
		{"Night Market", poilabel.TaskSpec{Location: poilabel.Pt(7, 3),
			Labels: []string{"food", "shopping", "museum"}}, []bool{true, true, false}},
		{"Old Observatory", poilabel.TaskSpec{Location: poilabel.Pt(5, 5),
			Labels: []string{"history", "science", "nightlife"}}, []bool{true, true, false}},
	}
	// Four workers: three reliable locals and one spammer.
	crowd := []string{"ana", "bo", "cy", "spam-bot"}
	homes := []poilabel.Point{poilabel.Pt(2, 7), poilabel.Pt(6, 4), poilabel.Pt(5, 6), poilabel.Pt(0, 0)}

	svc, err := poilabel.NewService(
		poilabel.WithBudget(12),         // total paid assignments
		poilabel.WithTasksPerRequest(2), // h: tasks handed to each arriving worker
	)
	if err != nil {
		panic(err)
	}
	truth := make(map[string][]bool)
	for _, p := range pois {
		if err := svc.AddTask(p.id, p.spec); err != nil {
			panic(err)
		}
		truth[p.id] = p.truth
	}
	for i, w := range crowd {
		if err := svc.AddWorker(w, poilabel.WorkerSpec{Locations: homes[i : i+1]}); err != nil {
			panic(err)
		}
	}

	// The crowd: reliable workers answer 90% of labels correctly, the
	// spammer flips coins.
	rng := rand.New(rand.NewSource(1))
	askWorker := func(w, t string) []bool {
		p := 0.9
		if w == "spam-bot" {
			p = 0.5
		}
		sel := make([]bool, len(truth[t]))
		for k := range sel {
			if rng.Float64() < p {
				sel[k] = truth[t][k]
			} else {
				sel[k] = !truth[t][k]
			}
		}
		return sel
	}

	// The alternating protocol: workers arrive, the assigner picks their
	// tasks, answers flow back into the inference model. RequestTasks
	// returns ErrBudgetExhausted once every paid assignment is spent.
	ctx := context.Background()
	for {
		assigned, err := svc.RequestTasks(ctx, crowd)
		if err != nil {
			break
		}
		handed := 0
		for _, w := range crowd {
			for _, t := range assigned[w] {
				if err := svc.SubmitAnswer(w, t, askWorker(w, t)); err != nil {
					panic(err)
				}
				handed++
			}
		}
		if handed == 0 {
			break
		}
	}

	// Read the inference.
	results, err := svc.Results(ctx)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%s:\n", r.Task)
		for k, label := range r.Labels {
			mark := " "
			if r.Inferred[k] {
				mark = "x"
			}
			fmt.Printf("  [%s] %-10s P(correct) = %.2f\n", mark, label, r.Prob[k])
		}
	}
	fmt.Println("\nestimated worker quality:")
	for _, w := range crowd {
		info, err := svc.WorkerInfo(w)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-9s %.2f\n", w, info.Quality)
	}
}
