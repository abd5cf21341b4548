package core

// Differential and resource tests for the out-of-core engine. The
// contract under test: RunStream's Result is a function of the point
// data and the configuration alone — source kind (memory vs file),
// block size and worker count must not change a single bit — and the
// engine's resident point storage stays O(sample + block) no matter how
// large the source is.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"proclus/internal/dataset"
	"proclus/internal/obs/obstest"
	"proclus/internal/synth"
)

func streamTestFile(t *testing.T, ds *dataset.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.bin")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// normalizeStreamed zeroes everything that legitimately varies with the
// execution shape rather than the computation: wall-clock timings, the
// block/byte delivery counters (block size changes how many blocks
// carry the same bytes... blocks; bytes stay equal but arrive in
// different counts per pass only when the source shape differs, so both
// are cleared), and the Workers/BlockPoints config echoes. Everything
// else must match bit-for-bit.
func normalizeStreamed(res *Result) {
	zeroStatsTimings(res)
	res.Stats.Counters.StreamBlocks = 0
	res.Stats.Counters.StreamBytes = 0
	res.Config.Workers = 0
	res.Config.BlockPoints = 0
}

func streamEquivalenceData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, _, err := synth.Generate(synth.Config{
		N: 1500, Dims: 10, K: 3, FixedDims: 3, MinSizeFraction: 0.15, Seed: 83,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestStreamingInMemoryEquivalence is the engine's differential suite:
// for several randomized configurations, the streamed result over an
// in-memory source is computed once as the reference, then re-derived
// across block sizes, worker counts, and a disk-backed FileSource over
// the same points. Every combination must reproduce the reference
// bit-for-bit — full Result compare, not a summary.
func TestStreamingInMemoryEquivalence(t *testing.T) {
	ds := streamEquivalenceData(t)
	path := streamTestFile(t, ds)
	n := ds.Len()

	// Every configuration sets only K, L, Seed and Restarts; the last
	// three names are stable subtest IDs, not descriptions.
	configs := map[string]Config{
		"default":      {K: 3, L: 3, Seed: 13},
		"random-init":  {K: 4, L: 4, Seed: 7, Restarts: 3},
		"skip-refine":  {K: 3, L: 3, Seed: 99},
		"naive-manhat": {K: 3, L: 4, Seed: 5},
	}
	blockSizes := []int{1, 19, 256, n}
	workerCounts := []int{1, 2, 4, 7}

	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			refCfg := cfg
			refCfg.Workers = 1
			ref, err := RunStream(context.Background(), dataset.NewMemorySource(ds, 0), refCfg)
			if err != nil {
				t.Fatal(err)
			}
			normalizeStreamed(ref)
			check := func(label string, src PointSource, workers int) {
				t.Helper()
				c := cfg
				c.Workers = workers
				got, err := RunStream(context.Background(), src, c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				normalizeStreamed(got)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s: streamed result diverged from reference\nref: %+v\ngot: %+v", label, ref, got)
				}
			}
			for _, bp := range blockSizes {
				for _, w := range workerCounts {
					check(fmt.Sprintf("memory/block=%d/workers=%d", bp, w),
						dataset.NewMemorySource(ds, bp), w)
				}
			}
			for _, bp := range []int{19, 256} {
				for _, w := range workerCounts {
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

// TestStreamReportGolden pins one canonical streamed run — fixed data,
// fixed seed, fixed block size, disk-backed source — to a golden
// report, the streamed counterpart of TestReportGolden. Regenerate with
// -update.
func TestStreamReportGolden(t *testing.T) {
	ds := reportData(t)
	path := streamTestFile(t, ds)
	src, err := dataset.OpenFileSource(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStream(context.Background(), src, reportConfigFixture())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	zeroReportTimings(rep)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stream_report_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("streamed report drifted from golden file (run with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// cancellingSource wraps a PointSource and cancels a context after
// delivering a fixed number of blocks, so tests can interrupt a run
// mid-pass at a deterministic spot.
type cancellingSource struct {
	PointSource
	after  int
	cancel context.CancelFunc
	seen   int
}

func (c *cancellingSource) Pass(ctx context.Context, workers int, work, fold func(*dataset.Block) error) error {
	return c.PointSource.Pass(ctx, workers, work, func(b *dataset.Block) error {
		c.seen++
		if c.seen == c.after {
			c.cancel()
		}
		return fold(b)
	})
}

// TestStreamCancellationMidPass cancels a streamed fit from the fold of
// its third block, at one worker and at four: the fit must return
// context.Canceled and no result, and no block reader may outlive it.
func TestStreamCancellationMidPass(t *testing.T) {
	ds := streamEquivalenceData(t)
	path := streamTestFile(t, ds)
	for _, workers := range []int{1, 4} {
		base := obstest.Goroutines()
		fs, err := dataset.OpenFileSource(path, 64)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancellingSource{PointSource: fs, after: 3, cancel: cancel}
		res, err := RunStream(ctx, src, Config{K: 3, L: 3, Seed: 13, Workers: workers})
		cancel()
		if res != nil {
			t.Fatalf("workers=%d: cancelled run returned a result", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled run returned %v, want context.Canceled", workers, err)
		}
		obstest.Settle(t, base)
	}
}

// truncatingSource wraps a FileSource and cuts its file down to the
// header and one point from the fold of the pass's first block, so the
// block reads still ahead of the fold come up short.
type truncatingSource struct {
	*dataset.FileSource
	t *testing.T
}

func (c *truncatingSource) Pass(ctx context.Context, workers int, work, fold func(*dataset.Block) error) error {
	first := true
	return c.FileSource.Pass(ctx, workers, work, func(b *dataset.Block) error {
		if first {
			first = false
			const header = 21 // bytes before the data section
			if err := os.Truncate(c.Path(), header+int64(c.Dims())*8); err != nil {
				c.t.Error(err)
			}
		}
		return fold(b)
	})
}

// TestStreamTruncatedFileFails cuts the data file short after
// OpenFileSource, once before the fit starts and once from inside its
// first block pass. At every worker count the fit must return an
// error, not hang, and leave no goroutine behind.
func TestStreamTruncatedFileFails(t *testing.T) {
	ds := streamEquivalenceData(t)
	raw, err := os.ReadFile(streamTestFile(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.bin")
	for _, workers := range []int{1, 2, 7} {
		for _, midPass := range []bool{false, true} {
			base := obstest.Goroutines()
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			fs, err := dataset.OpenFileSource(path, 19)
			if err != nil {
				t.Fatal(err)
			}
			var src PointSource = fs
			if midPass {
				src = &truncatingSource{FileSource: fs, t: t}
			} else if err := os.Truncate(path, int64(len(raw))/2); err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := RunStream(context.Background(), src, Config{K: 3, L: 3, Seed: 13, Workers: workers})
				done <- outcome{res, err}
			}()
			select {
			case o := <-done:
				if o.res != nil || o.err == nil {
					t.Fatalf("workers=%d midPass=%v: fit over a truncated file returned (%v, %v), want an error",
						workers, midPass, o.res, o.err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("workers=%d midPass=%v: fit over a truncated file did not return", workers, midPass)
			}
			obstest.Settle(t, base)
		}
	}
}

func TestStreamCancelledBeforeStart(t *testing.T) {
	ds := streamEquivalenceData(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunStream(ctx, dataset.NewMemorySource(ds, 64), Config{K: 3, L: 3, Seed: 13})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

func TestStreamValidation(t *testing.T) {
	ds := streamEquivalenceData(t)
	if _, err := RunStream(context.Background(), nil, Config{K: 3, L: 3}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := RunStream(context.Background(), dataset.NewMemorySource(ds, 0), Config{K: 0, L: 3}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := RunStream(context.Background(), dataset.NewMemorySource(ds, 0), Config{K: 3, L: 99}); err == nil {
		t.Error("L beyond dimensionality accepted")
	}
}

// TestStreamResidencyBounded is the acceptance check for the streamed
// memory model: against a source far larger than the sample, the stream
// counters must account for every pass, and the engine's total
// allocations must stay well under one resident copy of the matrix.
func TestStreamResidencyBounded(t *testing.T) {
	const (
		n           = 100000
		dims        = 32
		k           = 4
		blockPoints = 1024
	)
	ds, _, err := synth.Generate(synth.Config{
		N: n, Dims: dims, K: k, FixedDims: 6, MinSizeFraction: 0.15, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := streamTestFile(t, ds)
	ds = nil
	src, err := dataset.OpenFileSource(path, blockPoints)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := RunStream(context.Background(), src, Config{K: k, L: 5, Seed: 3, Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}

		// Two passes sweep the file: assignment + outliers, final
		// objective. The A·k-point sample (A = 30 by default) is read
		// by position and counts as one block of its own bytes.
		blocksPerPass := int64((n + blockPoints - 1) / blockPoints)
		sampleBytes := int64(30*k) * dims * 8
		if got := res.Stats.Counters.StreamBlocks; got != 2*blocksPerPass+1 {
			t.Errorf("workers=%d: stream blocks = %d, want %d", workers, got, 2*blocksPerPass+1)
		}
		if got, want := res.Stats.Counters.StreamBytes, 2*int64(n)*dims*8+sampleBytes; got != want {
			t.Errorf("workers=%d: stream bytes = %d, want %d", workers, got, want)
		}

		// Allocation bound: the run may allocate the O(n) assignment
		// and member index vectors, the sample, and per-pass block
		// buffers, two per worker — but never anything near a resident
		// copy of the n×dims float64 matrix.
		matrixBytes := uint64(n) * dims * 8
		if delta := after.TotalAlloc - before.TotalAlloc; delta > matrixBytes/2 {
			t.Errorf("workers=%d: streamed run allocated %d bytes, want < %d (half the %d-byte matrix)",
				workers, delta, matrixBytes/2, matrixBytes)
		}
	}
}

// TestStreamMedoidIndicesReferToDataset checks the index contract:
// cluster medoids, members and assignments all speak full-dataset
// indices even though the hill climb ran on the sample.
func TestStreamMedoidIndicesReferToDataset(t *testing.T) {
	ds := streamEquivalenceData(t)
	res, err := RunStream(context.Background(), dataset.NewMemorySource(ds, 128), Config{K: 3, L: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != ds.Len() {
		t.Fatalf("assignments cover %d points, want %d", len(res.Assignments), ds.Len())
	}
	for ci, cl := range res.Clusters {
		if cl.Medoid < 0 || cl.Medoid >= ds.Len() {
			t.Fatalf("cluster %d medoid %d outside dataset", ci, cl.Medoid)
		}
		// The medoid's recorded coordinates must be the dataset's point.
		if res.Assignments[cl.Medoid] == ci {
			found := false
			for _, m := range cl.Members {
				if m == cl.Medoid {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cluster %d medoid %d assigned to it but missing from members", ci, cl.Medoid)
			}
		}
		prev := -1
		for _, m := range cl.Members {
			if m <= prev || m >= ds.Len() {
				t.Fatalf("cluster %d members not ascending dataset indices: %v", ci, cl.Members)
			}
			prev = m
		}
	}
}
