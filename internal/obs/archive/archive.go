// Package archive is the persistent run store of the observability
// stack: an append-only on-disk archive that accumulates completed
// runs, so the system's observable unit becomes *runs over time*, not
// one process lifetime. Each entry is a directory named by its run ID
// holding a manifest (schema version, provenance, config echo, work
// counters) plus the run's report and series snapshot as separate JSON
// files.
//
// Layout:
//
//	<dir>/
//	  index.json                 deterministic listing, regenerated on save
//	  <run-id>/
//	    manifest.json            always present; diff/trend need only this
//	    report.json              full obs.RunReport
//	    series.json              time-series snapshot, when recorded
//
// Entries written by older versions may also hold a metrics.json;
// loading ignores it.
//
// Loading is corruption-tolerant: entries whose manifest is missing or
// unparseable are skipped and reported, never fatal, so one truncated
// write cannot take the whole archive down. Saving is atomic (staged in
// a temporary directory, renamed into place), and retention by count
// garbage-collects the oldest entries.
package archive

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"proclus/internal/obs"
	"proclus/internal/obs/series"
)

// SchemaVersion is stamped into every manifest; loaders reject entries
// from a future schema rather than misread them.
const SchemaVersion = 1

// File names inside an entry directory.
const (
	indexFile    = "index.json"
	manifestFile = "manifest.json"
	reportFile   = "report.json"
	seriesFile   = "series.json"
)

// Manifest is the always-present summary of one archived entry. It
// carries everything `runlens diff` and `runlens trend` compare —
// deterministic work counters, per-phase seconds, quality indices — so
// cross-run analysis never needs the (larger, optional) sibling files.
type Manifest struct {
	Schema int    `json:"schema"`
	RunID  string `json:"run_id"`
	// Algorithm names the producer ("proclus", "clique", …).
	Algorithm string    `json:"algorithm,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	// GitRev is the recording checkout's revision, when known.
	GitRev string `json:"git_rev,omitempty"`
	// Seed is the effective random seed of the run.
	Seed uint64 `json:"seed,omitempty"`
	// Config echoes the effective configuration as recorded (the run
	// report's config echo).
	Config json.RawMessage `json:"config,omitempty"`
	// Objective is the run's final quality measure.
	Objective float64 `json:"objective,omitempty"`
	// PhaseSeconds maps phase name to wall seconds.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// Counters holds the deterministic hot-path work counters.
	Counters obs.Snapshot `json:"counters"`
	// Quality holds external evaluation indices (ari, nmi, purity) when
	// the producing CLI computed them against ground-truth labels.
	Quality map[string]float64 `json:"quality,omitempty"`
}

// Run bundles one completed run's artifacts for SaveRun. Report,
// Series and Quality are optional.
type Run struct {
	Algorithm string
	Seed      uint64
	// Config is the JSON-safe effective configuration echo.
	Config any
	// CreatedAt stamps the entry; the zero value means time.Now().
	CreatedAt time.Time
	// GitRev is the recording revision; use GitRev() for best effort.
	GitRev    string
	Objective float64
	Phases    map[string]float64
	Counters  obs.Snapshot
	Report    *obs.RunReport
	Series    series.StoreSnapshot
	Quality   map[string]float64
}

// FromReport builds a Run from a finished run report, the common case
// for the CLIs: algorithm, seed, config echo, phases, counters and
// series all come from the report itself.
func FromReport(rep *obs.RunReport) Run {
	r := Run{
		Algorithm: rep.Algorithm,
		Seed:      rep.Seed,
		Config:    rep.Config,
		Objective: rep.Objective,
		Counters:  rep.Counters,
		Report:    rep,
		Series:    rep.Series,
	}
	if len(rep.Phases) > 0 {
		r.Phases = make(map[string]float64, len(rep.Phases))
		for _, p := range rep.Phases {
			r.Phases[p.Name] += p.Seconds
		}
	}
	return r
}

// Options configures a store.
type Options struct {
	// Retain keeps only the newest Retain entries (by creation time,
	// then run ID), garbage-collecting older ones after each save.
	// Zero or negative means keep everything.
	Retain int
}

// Store is one on-disk archive directory. Safe for concurrent use
// within a process; cross-process writers are serialized only by the
// atomicity of directory renames, which is enough for append-only use.
type Store struct {
	dir  string
	opts Options
	mu   sync.Mutex
}

// Open creates (if needed) and opens the archive directory.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("archive: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, opts: opts}, nil
}

// Dir returns the archive's root directory.
func (s *Store) Dir() string { return s.dir }

// runIDTime is the timestamp layout run IDs start with: fixed-width
// nanoseconds, so lexical order equals chronological order.
const runIDTime = "20060102T150405.000000000Z"

// newRunID builds a unique, time-sortable entry name.
func (s *Store) newRunID(at time.Time, slug string) string {
	if slug == "" {
		slug = "run"
	}
	slug = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		}
		return '-'
	}, slug)
	base := at.UTC().Format(runIDTime) + "-" + slug
	id := base
	for n := 2; ; n++ {
		if _, err := os.Stat(filepath.Join(s.dir, id)); os.IsNotExist(err) {
			return id
		}
		id = fmt.Sprintf("%s-%d", base, n)
	}
}

// SaveRun archives one completed run and returns its run ID. The entry
// is staged in a temporary directory and renamed into place, so a crash
// mid-save leaves no half-written entry under a run ID.
func (s *Store) SaveRun(run Run) (string, error) {
	at := run.CreatedAt
	if at.IsZero() {
		at = time.Now()
	}
	m := Manifest{
		Schema:       SchemaVersion,
		Algorithm:    run.Algorithm,
		CreatedAt:    at.UTC(),
		GitRev:       run.GitRev,
		Seed:         run.Seed,
		Objective:    run.Objective,
		PhaseSeconds: run.Phases,
		Counters:     run.Counters,
		Quality:      run.Quality,
	}
	if run.Config != nil {
		raw, err := json.Marshal(run.Config)
		if err != nil {
			return "", fmt.Errorf("archive: encoding config echo: %w", err)
		}
		m.Config = raw
	}
	files := map[string]any{}
	if run.Report != nil {
		files[reportFile] = run.Report
	}
	if len(run.Series) > 0 {
		files[seriesFile] = run.Series
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	m.RunID = s.newRunID(m.CreatedAt, run.Algorithm)

	tmp, err := os.MkdirTemp(s.dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	files[manifestFile] = &m
	for name, doc := range files {
		if err := writeJSON(filepath.Join(tmp, name), doc); err != nil {
			return "", err
		}
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, m.RunID)); err != nil {
		return "", err
	}
	if err := s.gcLocked(); err != nil {
		return "", err
	}
	return m.RunID, s.writeIndexLocked()
}

// Problem reports one archive entry that could not be loaded.
type Problem struct {
	RunID string `json:"run_id"`
	Err   string `json:"error"`
}

// List scans the archive directory and returns every readable manifest
// sorted by (creation time, run ID), plus a Problem per unreadable
// entry. The directory scan — not the index file — is authoritative, so
// a corrupt or missing index never hides valid entries.
func (s *Store) List() ([]Manifest, []Problem, error) {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	var ms []Manifest
	var probs []Problem
	for _, de := range dirents {
		if !de.IsDir() || strings.HasPrefix(de.Name(), ".") {
			continue
		}
		m, err := readManifest(filepath.Join(s.dir, de.Name(), manifestFile))
		if err != nil {
			probs = append(probs, Problem{RunID: de.Name(), Err: err.Error()})
			continue
		}
		if m.RunID != de.Name() {
			probs = append(probs, Problem{RunID: de.Name(),
				Err: fmt.Sprintf("manifest names run %q", m.RunID)})
			continue
		}
		ms = append(ms, m)
	}
	sortManifests(ms)
	sort.Slice(probs, func(i, j int) bool { return probs[i].RunID < probs[j].RunID })
	return ms, probs, nil
}

func sortManifests(ms []Manifest) {
	sort.Slice(ms, func(i, j int) bool {
		if !ms[i].CreatedAt.Equal(ms[j].CreatedAt) {
			return ms[i].CreatedAt.Before(ms[j].CreatedAt)
		}
		return ms[i].RunID < ms[j].RunID
	})
}

func readManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("%s: %w", path, err)
	}
	if m.Schema == 0 {
		return Manifest{}, fmt.Errorf("%s: missing schema version", path)
	}
	if m.Schema > SchemaVersion {
		return Manifest{}, fmt.Errorf("%s: schema v%d is newer than this tool (v%d)",
			path, m.Schema, SchemaVersion)
	}
	return m, nil
}

// Record is one fully loaded entry: the manifest plus whichever sibling
// documents exist. Missing or unreadable optional files are reported in
// Problems rather than failing the load.
type Record struct {
	Manifest Manifest             `json:"manifest"`
	Report   *obs.RunReport       `json:"report,omitempty"`
	Series   series.StoreSnapshot `json:"series,omitempty"`
	Problems []string             `json:"problems,omitempty"`
}

// Load reads one entry by run ID. Only a missing or corrupt manifest is
// fatal; other damage is reported in Record.Problems.
func (s *Store) Load(id string) (*Record, error) {
	if id != filepath.Base(id) || strings.HasPrefix(id, ".") {
		return nil, fmt.Errorf("archive: invalid run ID %q", id)
	}
	dir := filepath.Join(s.dir, id)
	m, err := readManifest(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	rec := &Record{Manifest: m}
	load := func(name string, dst any, required bool) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			if required {
				rec.Problems = append(rec.Problems, name+": missing")
			}
			return
		}
		if err == nil {
			err = json.Unmarshal(data, dst)
		}
		if err != nil {
			rec.Problems = append(rec.Problems, fmt.Sprintf("%s: %v", name, err))
		}
	}
	var rep obs.RunReport
	load(reportFile, &rep, true)
	if rep.Algorithm != "" {
		rec.Report = &rep
	}
	load(seriesFile, &rec.Series, false)
	return rec, nil
}

// gcLocked enforces the retention count: the oldest readable entries
// beyond Options.Retain are deleted. Unreadable entries are left in
// place for inspection — GC never destroys evidence of corruption.
func (s *Store) gcLocked() error {
	if s.opts.Retain <= 0 {
		return nil
	}
	ms, _, err := s.List()
	if err != nil {
		return err
	}
	for len(ms) > s.opts.Retain {
		if err := os.RemoveAll(filepath.Join(s.dir, ms[0].RunID)); err != nil {
			return err
		}
		ms = ms[1:]
	}
	return nil
}

// Index is the on-disk index document: a slim, deterministically
// ordered listing regenerated after every save. Consumers inside this
// repository scan the directory instead (List); the file exists for
// external tooling and for at-a-glance inspection.
type Index struct {
	Schema int          `json:"schema"`
	Runs   []IndexEntry `json:"runs"`
}

// IndexEntry is one index line.
type IndexEntry struct {
	RunID     string    `json:"run_id"`
	Algorithm string    `json:"algorithm,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	Seed      uint64    `json:"seed,omitempty"`
	GitRev    string    `json:"git_rev,omitempty"`
	Objective float64   `json:"objective,omitempty"`
}

func (s *Store) writeIndexLocked() error {
	ms, _, err := s.List()
	if err != nil {
		return err
	}
	idx := Index{Schema: SchemaVersion, Runs: make([]IndexEntry, 0, len(ms))}
	for _, m := range ms {
		idx.Runs = append(idx.Runs, IndexEntry{
			RunID: m.RunID, Algorithm: m.Algorithm,
			CreatedAt: m.CreatedAt, Seed: m.Seed, GitRev: m.GitRev,
			Objective: m.Objective,
		})
	}
	// Atomic replace: external readers never observe a torn index.
	tmp, err := os.CreateTemp(s.dir, ".index-*")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(idx); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(s.dir, indexFile))
}

// ReadIndex loads the on-disk index document.
func ReadIndex(dir string) (*Index, error) {
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		return nil, err
	}
	var idx Index
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, err
	}
	return &idx, nil
}

func writeJSON(path string, doc any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// GitRev best-effort resolves the current checkout's short revision;
// archives stay useful without it (e.g. from an exported tarball).
func GitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
