package clique

// Differential tests for the out-of-core CLIQUE passes: RunStream must
// reproduce Run bit-for-bit over the same points — every pass is
// integer counting with worker-disjoint counters, so source kind, block
// size and worker count are all invisible in the Result.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/synth"
)

func cliqueStreamData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 2000, Dims: 8, K: 3, FixedDims: 3, MinSizeFraction: 0.2, Seed: 47,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func cliqueStreamFile(t *testing.T, ds *dataset.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "clique.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// normalizeCliqueResult zeroes what legitimately varies with the
// execution shape: timings, the stream delivery counters and the
// Workers/Stream/BlockPoints config echoes. Everything else — clusters,
// units, counts, levels — must match bit-for-bit.
func normalizeCliqueResult(res *Result) {
	res.Stats.HistogramDuration = 0
	res.Stats.SearchDuration = 0
	res.Stats.ReportDuration = 0
	for i := range res.Stats.LevelDurations {
		res.Stats.LevelDurations[i] = 0
	}
	res.Stats.Counters.StreamBlocks = 0
	res.Stats.Counters.StreamBytes = 0
	res.Config.Workers = 0
	res.Config.Stream = false
	res.Config.BlockPoints = 0
}

func TestCliqueStreamEquivalence(t *testing.T) {
	ds := cliqueStreamData(t)
	path := cliqueStreamFile(t, ds)
	n := ds.Len()

	configs := map[string]Config{
		"default":     {Xi: 8, Tau: 0.01},
		"mdl-highest": {Xi: 8, Tau: 0.01, MDLPruning: true, ReportHighest: true},
		"fixed-dims":  {Xi: 8, Tau: 0.02, FixedDims: 2},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			refCfg := cfg
			refCfg.Workers = 1
			ref, err := Run(ds, refCfg)
			if err != nil {
				t.Fatal(err)
			}
			normalizeCliqueResult(ref)
			check := func(label string, src PointSource, workers int) {
				t.Helper()
				c := cfg
				c.Workers = workers
				got, err := RunStream(context.Background(), src, c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				normalizeCliqueResult(got)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s: streamed result diverged from Run\nref: %+v\ngot: %+v", label, ref, got)
				}
			}
			for _, bp := range []int{1, 17, 256, n} {
				for _, w := range []int{1, 4} {
					check(fmt.Sprintf("memory/block=%d/workers=%d", bp, w),
						dataset.NewMemorySource(ds, bp), w)
				}
			}
			for _, bp := range []int{17, 256} {
				for _, w := range []int{1, 4} {
					src, err := dataset.OpenFileSource(path, bp)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("file/block=%d/workers=%d", bp, w), src, w)
				}
			}
		})
	}
}

// TestCliqueStreamTelemetry checks the out-of-core bookkeeping: the
// stream counters account for whole passes over the source and the
// config echo names the delivery mechanism.
func TestCliqueStreamTelemetry(t *testing.T) {
	ds := cliqueStreamData(t)
	path := cliqueStreamFile(t, ds)
	const bp = 256
	src, err := dataset.OpenFileSource(path, bp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStream(context.Background(), src, Config{Xi: 8, Tau: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Config.Stream || res.Config.BlockPoints != bp {
		t.Errorf("config echo = (stream=%v, block_points=%d), want (true, %d)",
			res.Config.Stream, res.Config.BlockPoints, bp)
	}
	n := ds.Len()
	blocksPerPass := int64((n + bp - 1) / bp)
	blocks := res.Stats.Counters.StreamBlocks
	if blocks == 0 || blocks%blocksPerPass != 0 {
		t.Errorf("stream blocks = %d, want a positive multiple of %d", blocks, blocksPerPass)
	}
	// At minimum: bounds, histogram and the cluster-size pass.
	if blocks < 3*blocksPerPass {
		t.Errorf("stream blocks = %d, want at least %d (three passes)", blocks, 3*blocksPerPass)
	}
	passes := blocks / blocksPerPass
	if got, want := res.Stats.Counters.StreamBytes, passes*int64(n)*int64(ds.Dims())*8; got != want {
		t.Errorf("stream bytes = %d, want %d (%d full passes)", got, want, passes)
	}
}

// cancelAfterBlocks wraps a PointSource and cancels a context after a
// fixed number of delivered blocks.
type cancelAfterBlocks struct {
	PointSource
	after  int
	cancel context.CancelFunc
	seen   int
}

func (c *cancelAfterBlocks) Pass(ctx context.Context, workers int, work, fold func(*dataset.Block) error) error {
	return c.PointSource.Pass(ctx, workers, work, func(b *dataset.Block) error {
		c.seen++
		if c.seen == c.after {
			c.cancel()
		}
		return fold(b)
	})
}

func TestCliqueStreamCancellation(t *testing.T) {
	ds := cliqueStreamData(t)
	path := cliqueStreamFile(t, ds)
	base := runtime.NumGoroutine()
	fs, err := dataset.OpenFileSource(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterBlocks{PointSource: fs, after: 2, cancel: cancel}
	res, err := RunStream(ctx, src, Config{Xi: 8, Tau: 0.01})
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines never settled to %d (now %d):\n%s", base, g, buf[:runtime.Stack(buf, true)])
	}
}

func TestCliqueStreamValidation(t *testing.T) {
	ds := cliqueStreamData(t)
	if _, err := RunStream(context.Background(), nil, Config{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := RunStream(context.Background(), dataset.NewMemorySource(ds, 0), Config{Xi: 1}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := RunStream(context.Background(), dataset.NewMemorySource(ds, 0), Config{FixedDims: 99}); err == nil {
		t.Error("FixedDims beyond dimensionality accepted")
	}
}
