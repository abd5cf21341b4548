package registry

import (
	"context"
	"math"
	"time"

	"proclus/internal/dist"
	"proclus/internal/medoid"
	"proclus/internal/obs"
)

func init() { Register(medoidAlgo{}) }

// medoidAlgo adapts the CLARANS-style full-dimensional k-medoids
// baseline. The descent is serial and needs the matrix in memory; run
// start/end events are emitted here, and the run report — which the
// medoid package does not build itself — is assembled by the adapter.
type medoidAlgo struct{}

func (medoidAlgo) Name() string { return "kmedoids" }

func (medoidAlgo) Caps() Caps {
	return Caps{TakesK: true, MedoidParams: true}
}

// medoidConfigReport is the JSON-safe config echo for k-medoids runs.
type medoidConfigReport struct {
	K            int    `json:"k"`
	MaxNeighbors int    `json:"max_neighbors"`
	Restarts     int    `json:"restarts"`
	Seed         uint64 `json:"seed"`
}

func (medoidAlgo) Fit(ctx context.Context, src Source, cfg Config) (Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mcfg := medoid.Config{
		K: cfg.K, Seed: cfg.Seed,
		MaxNeighbors: cfg.Medoid.MaxNeighbors,
		Restarts:     cfg.Medoid.Restarts,
	}
	ds := src.Dataset
	if cfg.Observer != nil {
		cfg.Observer.Observe(obs.Event{
			Type: obs.EvRunStart, Algorithm: "kmedoids",
			Points: ds.Len(), Dims: ds.Dims(),
		})
	}
	start := time.Now()
	res, err := medoid.Run(ds, mcfg)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if cfg.Observer != nil {
		cfg.Observer.Observe(obs.Event{
			Type: obs.EvRunEnd, Algorithm: "kmedoids",
			Objective: res.Cost, Seconds: elapsed.Seconds(),
		})
	}
	m := &medoidModel{
		res: res, points: ds.Len(), dims: ds.Dims(),
		seconds: elapsed.Seconds(),
		echo: medoidConfigReport{
			K: mcfg.K, Seed: mcfg.Seed,
			MaxNeighbors: mcfg.MaxNeighbors, Restarts: mcfg.Restarts,
		},
	}
	if m.echo.MaxNeighbors == 0 {
		m.echo.MaxNeighbors = medoid.DefaultMaxNeighbors
	}
	if m.echo.Restarts == 0 {
		m.echo.Restarts = medoid.DefaultRestarts
	}
	// Capture the medoid coordinates so Assign works without the
	// dataset (the result only records indices).
	m.medoidPts = make([][]float64, len(res.Medoids))
	for i, idx := range res.Medoids {
		m.medoidPts[i] = append([]float64(nil), ds.Point(idx)...)
	}
	return m, nil
}

type medoidModel struct {
	res       *medoid.Result
	medoidPts [][]float64
	points    int
	dims      int
	seconds   float64
	echo      medoidConfigReport
}

func (m *medoidModel) Algorithm() string  { return "kmedoids" }
func (m *medoidModel) NumClusters() int   { return len(m.res.Medoids) }
func (m *medoidModel) Assignments() []int { return m.res.Assignments }
func (m *medoidModel) Unwrap() any        { return m.res }

// Assign places a fresh point with its nearest medoid under the
// full-dimensional segmental metric, ties toward the lower medoid
// position — the same rule the descent's assignment pass applies.
func (m *medoidModel) Assign(p []float64) int {
	best, bestD := -1, math.Inf(1)
	for i, mp := range m.medoidPts {
		if len(p) != len(mp) {
			return -1
		}
		if d := dist.SegmentalAll(p, mp); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func (m *medoidModel) Report() *obs.RunReport {
	rep := &obs.RunReport{
		Algorithm: "kmedoids",
		Dataset:   obs.DatasetInfo{Points: m.points, Dims: m.dims},
		Seed:      m.echo.Seed,
		Config:    m.echo,
		Phases: []obs.PhaseReport{
			{Name: "cluster", Seconds: m.seconds},
		},
		Counters:     m.res.Stats.Counters,
		Objective:    m.res.Cost,
		TotalSeconds: m.seconds,
	}
	sizes := make([]int, len(m.res.Medoids))
	for _, a := range m.res.Assignments {
		sizes[a]++
	}
	for i, idx := range m.res.Medoids {
		rep.Clusters = append(rep.Clusters, obs.ClusterReport{
			ID: i, Size: sizes[i], Medoid: idx,
		})
	}
	return rep
}
