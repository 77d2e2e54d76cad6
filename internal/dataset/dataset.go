// Package dataset builds the task sets the paper evaluates on. The paper
// used two real 200-POI datasets (Beijing city POIs and China scenic spots)
// with ground-truth labels curated from Dianping; those are not available,
// so this package generates seeded synthetic datasets that match the
// paper's published statistics exactly:
//
//	Beijing: 200 POIs, |Lt| = 10, 927 correct / 1073 incorrect labels,
//	         city-scale extent (~40 km), clustered like urban districts.
//	China:   200 POIs, |Lt| = 10, 864 correct / 1136 incorrect labels,
//	         country-scale extent (~3500 km), clustered like scenic regions.
//
// Review counts — the paper's observable proxy for POI influence
// (Figure 8) — are drawn from a heavy-tailed log-normal so that all four of
// the paper's tiers (>2500, >1000, >500, <500) are populated.
//
// All generation is deterministic given a seed, and datasets round-trip
// through JSON (Encode/Decode).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// Dataset is a task set with ground truth and the spatial extent used for
// distance normalization.
type Dataset struct {
	Name   string             `json:"name"`
	Tasks  []model.Task       `json:"tasks"`
	Truth  *model.GroundTruth `json:"truth"`
	Bounds geo.Rect           `json:"bounds"`
}

// Normalizer returns the distance normalizer for this dataset: distances
// are divided by the diameter of the dataset's bounding box, the paper's
// "maximum distance between POIs" convention.
func (d *Dataset) Normalizer() geo.Normalizer {
	return geo.NewNormalizer(d.Bounds.Diameter())
}

// Stats summarises a dataset.
type Stats struct {
	Tasks           int
	Labels          int
	CorrectLabels   int
	IncorrectLabels int
	AvgLabelsPerPOI float64
}

// Stats computes summary statistics.
func (d *Dataset) Stats() Stats {
	yes, total := d.Truth.CountCorrect()
	s := Stats{
		Tasks:           len(d.Tasks),
		Labels:          total,
		CorrectLabels:   yes,
		IncorrectLabels: total - yes,
	}
	if s.Tasks > 0 {
		s.AvgLabelsPerPOI = float64(total) / float64(s.Tasks)
	}
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%d tasks, %d labels (%d correct / %d incorrect)",
		s.Tasks, s.Labels, s.CorrectLabels, s.IncorrectLabels)
}

// Config controls synthetic dataset generation.
type Config struct {
	// Name labels the dataset in reports.
	Name string
	// NumTasks is the number of POIs.
	NumTasks int
	// LabelsPerTask is |Lt|.
	LabelsPerTask int
	// CorrectTotal is the exact total number of ground-truth "yes" labels
	// across the dataset. Zero means "roughly 45% of all labels".
	CorrectTotal int
	// Bounds is the spatial extent. A zero rectangle defaults to a
	// 40×40 unit box.
	Bounds geo.Rect
	// Clusters is the number of spatial clusters POIs are grouped into
	// (urban districts / scenic regions). Zero means 8.
	Clusters int
	// ClusterSpread is the standard deviation of POI scatter around its
	// cluster centre, as a fraction of the bounds' smaller side. Zero
	// means 0.05.
	ClusterSpread float64
	// ReviewMu and ReviewSigma parameterize the log-normal review counts.
	// Zeros mean mu=6, sigma=1.2 (median ≈ 400 reviews, ~6% above 2500).
	ReviewMu, ReviewSigma float64
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "synthetic"
	}
	if c.LabelsPerTask == 0 {
		c.LabelsPerTask = 10
	}
	if c.CorrectTotal == 0 {
		c.CorrectTotal = int(0.45 * float64(c.NumTasks*c.LabelsPerTask))
	}
	if c.Bounds.Width() == 0 || c.Bounds.Height() == 0 {
		c.Bounds = geo.NewRect(geo.Pt(0, 0), geo.Pt(40, 40))
	}
	if c.Clusters == 0 {
		c.Clusters = 8
	}
	if c.ClusterSpread == 0 {
		c.ClusterSpread = 0.05
	}
	if c.ReviewMu == 0 {
		c.ReviewMu = 6
	}
	if c.ReviewSigma == 0 {
		c.ReviewSigma = 1.2
	}
	return c
}

// Beijing generates the synthetic stand-in for the paper's Beijing dataset:
// 200 city POIs on a ~40 km extent with 927 correct / 1073 incorrect labels.
func Beijing(seed int64) *Dataset {
	return Generate(Config{
		Name:         "Beijing",
		NumTasks:     200,
		CorrectTotal: 927,
		Bounds:       geo.NewRect(geo.Pt(0, 0), geo.Pt(40, 40)),
		Clusters:     10,
	}, seed)
}

// China generates the synthetic stand-in for the paper's China dataset:
// 200 scenic spots on a country-scale extent with 864 correct / 1136
// incorrect labels.
func China(seed int64) *Dataset {
	return Generate(Config{
		Name:         "China",
		NumTasks:     200,
		CorrectTotal: 864,
		Bounds:       geo.NewRect(geo.Pt(0, 0), geo.Pt(3500, 3000)),
		Clusters:     15,
		// Scenic regions are tighter relative to the huge extent.
		ClusterSpread: 0.02,
	}, seed)
}

// Generate builds a synthetic dataset from cfg, deterministically for a
// given seed.
func Generate(cfg Config, seed int64) *Dataset {
	cfg = cfg.withDefaults()
	if cfg.NumTasks <= 0 {
		panic(fmt.Sprintf("dataset: NumTasks %d must be positive", cfg.NumTasks))
	}
	rng := rand.New(rand.NewSource(seed))

	// Cluster centres, then POIs scattered around them.
	centres := make([]geo.Point, cfg.Clusters)
	for i := range centres {
		centres[i] = geo.Pt(
			cfg.Bounds.Min.X+rng.Float64()*cfg.Bounds.Width(),
			cfg.Bounds.Min.Y+rng.Float64()*cfg.Bounds.Height(),
		)
	}
	side := math.Min(cfg.Bounds.Width(), cfg.Bounds.Height())
	spread := cfg.ClusterSpread * side

	tasks := make([]model.Task, cfg.NumTasks)
	for i := range tasks {
		c := centres[rng.Intn(len(centres))]
		loc := cfg.Bounds.Clamp(geo.Pt(
			c.X+rng.NormFloat64()*spread,
			c.Y+rng.NormFloat64()*spread,
		))
		labels := make([]string, cfg.LabelsPerTask)
		for k := range labels {
			labels[k] = fmt.Sprintf("%s-poi%03d-label%02d", cfg.Name, i, k)
		}
		reviews := int(math.Exp(rng.NormFloat64()*cfg.ReviewSigma + cfg.ReviewMu))
		tasks[i] = model.Task{
			ID:       model.TaskID(i),
			Name:     fmt.Sprintf("%s POI %03d", cfg.Name, i),
			Location: loc,
			Labels:   labels,
			Reviews:  reviews,
		}
	}

	truth := generateTruth(cfg, rng)
	return &Dataset{Name: cfg.Name, Tasks: tasks, Truth: truth, Bounds: cfg.Bounds}
}

// generateTruth assigns each task between 1 and |Lt| correct labels so the
// dataset-wide total is exactly cfg.CorrectTotal (clamped to the feasible
// range), mirroring the paper's "randomly selected 1∼10 correct labels"
// with its published totals.
func generateTruth(cfg Config, rng *rand.Rand) *model.GroundTruth {
	n, L := cfg.NumTasks, cfg.LabelsPerTask
	target := cfg.CorrectTotal
	if target < n {
		target = n // at least one correct label per task
	}
	if target > n*L {
		target = n * L
	}

	counts := make([]int, n)
	sum := 0
	for i := range counts {
		counts[i] = 1 + rng.Intn(L)
		sum += counts[i]
	}
	// Nudge random tasks until the total hits the target exactly.
	for sum != target {
		i := rng.Intn(n)
		if sum < target && counts[i] < L {
			counts[i]++
			sum++
		} else if sum > target && counts[i] > 1 {
			counts[i]--
			sum--
		}
	}

	truth := make([][]bool, n)
	for i := range truth {
		truth[i] = make([]bool, L)
		// Choose counts[i] random positions to be correct.
		perm := rng.Perm(L)
		for _, k := range perm[:counts[i]] {
			truth[i][k] = true
		}
	}
	return &model.GroundTruth{Truth: truth}
}

// ReviewTier buckets a review count into the paper's Figure 8 influence
// tiers. Tier 0 is the most influential (>2500 reviews), tier 3 the least
// (<500).
func ReviewTier(reviews int) int {
	switch {
	case reviews > 2500:
		return 0
	case reviews > 1000:
		return 1
	case reviews > 500:
		return 2
	default:
		return 3
	}
}

// TierName returns the paper's label for a review tier.
func TierName(tier int) string {
	switch tier {
	case 0:
		return "Rev>2500"
	case 1:
		return "Rev>1000"
	case 2:
		return "Rev>500"
	default:
		return "Rev<500"
	}
}
