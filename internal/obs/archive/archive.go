// Package archive is the persistent run store of the observability
// stack: an append-only on-disk archive that accumulates completed
// runs, so the system's observable unit becomes *runs over time*, not
// one process lifetime. Each entry is a directory named by its run ID
// holding one file: the run's report with the archive's provenance
// (schema version, run ID, creation time, git revision).
//
// Layout:
//
//	<dir>/
//	  <run-id>/
//	    run.json                 Entry: provenance plus the full obs.RunReport
//
// Listing is corruption-tolerant: an entry whose run.json is missing or
// unparseable is skipped and reported, never fatal, so one truncated
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
)

// SchemaVersion is stamped into every entry; listing rejects entries
// from a future schema rather than misread them. Entries from before
// schema 2 hold no run.json: they list as problems and must be
// re-recorded.
const SchemaVersion = 2

// entryFile is the one file inside an entry directory.
const entryFile = "run.json"

// Entry is one archived run. The report carries everything runlens
// compares (algorithm, seed, config echo, phases, counters, quality);
// the entry adds only what the store and the recording checkout know.
type Entry struct {
	// Schema and RunID are stamped by Store.Save.
	Schema int    `json:"schema"`
	RunID  string `json:"run_id"`
	// CreatedAt stamps the entry; the zero value means the time of the
	// save.
	CreatedAt time.Time `json:"created_at"`
	// GitRev is the recording checkout's revision, when known; use
	// GitRev() for best effort.
	GitRev string `json:"git_rev,omitempty"`
	// Report is the run's report. Required.
	Report *obs.RunReport `json:"report"`
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

// newRunID builds a unique, time-sortable entry name. A name that
// cannot be stat'ed for any reason but absence (one too long for the
// file system, say) is an error: no later suffix would fare better.
func (s *Store) newRunID(at time.Time, slug string) (string, error) {
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
		_, err := os.Stat(filepath.Join(s.dir, id))
		if os.IsNotExist(err) {
			return id, nil
		}
		if err != nil {
			return "", fmt.Errorf("archive: naming run %s: %w", id, err)
		}
		id = fmt.Sprintf("%s-%d", base, n)
	}
}

// Save archives one completed run and returns its run ID. The store
// stamps Schema and RunID. The entry is staged in a temporary directory
// and renamed into place, so a crash mid-save leaves no half-written
// entry under a run ID, and an ID collision fails instead of
// overwriting.
func (s *Store) Save(e Entry) (string, error) {
	if e.Report == nil {
		return "", fmt.Errorf("archive: entry has no report")
	}
	if e.CreatedAt.IsZero() {
		e.CreatedAt = time.Now()
	}
	e.CreatedAt = e.CreatedAt.UTC()
	e.Schema = SchemaVersion

	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.newRunID(e.CreatedAt, e.Report.Algorithm)
	if err != nil {
		return "", err
	}
	e.RunID = id

	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return "", fmt.Errorf("archive: encoding run %s: %w", e.RunID, err)
	}
	tmp, err := os.MkdirTemp(s.dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	if err := os.WriteFile(filepath.Join(tmp, entryFile), append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, e.RunID)); err != nil {
		return "", err
	}
	return e.RunID, s.gcLocked()
}

// Problem reports one archive entry that could not be loaded.
type Problem struct {
	RunID string `json:"run_id"`
	Err   string `json:"error"`
}

// List scans the archive directory and returns every readable entry
// sorted by (creation time, run ID), plus a Problem per unreadable
// entry.
func (s *Store) List() ([]Entry, []Problem, error) {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	var es []Entry
	var probs []Problem
	for _, de := range dirents {
		if !de.IsDir() || strings.HasPrefix(de.Name(), ".") {
			continue
		}
		e, err := readEntry(filepath.Join(s.dir, de.Name(), entryFile))
		if err == nil && e.RunID != de.Name() {
			err = fmt.Errorf("%s names run %q", entryFile, e.RunID)
		}
		if err != nil {
			probs = append(probs, Problem{RunID: de.Name(), Err: err.Error()})
			continue
		}
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if !es[i].CreatedAt.Equal(es[j].CreatedAt) {
			return es[i].CreatedAt.Before(es[j].CreatedAt)
		}
		return es[i].RunID < es[j].RunID
	})
	sort.Slice(probs, func(i, j int) bool { return probs[i].RunID < probs[j].RunID })
	return es, probs, nil
}

func readEntry(path string) (Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Entry{}, fmt.Errorf("no %s: written before schema %d, or not an archive entry; re-record the run",
			entryFile, SchemaVersion)
	}
	if err != nil {
		return Entry{}, err
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case e.Schema == 0:
		return Entry{}, fmt.Errorf("%s: missing schema version", path)
	case e.Schema > SchemaVersion:
		return Entry{}, fmt.Errorf("%s: schema v%d is newer than this tool (v%d)",
			path, e.Schema, SchemaVersion)
	case e.Report == nil:
		return Entry{}, fmt.Errorf("%s: no report", path)
	}
	return e, nil
}

// gcLocked enforces the retention count: the oldest readable entries
// beyond Options.Retain are deleted. Unreadable entries are left in
// place for inspection — GC never destroys evidence of corruption.
func (s *Store) gcLocked() error {
	if s.opts.Retain <= 0 {
		return nil
	}
	es, _, err := s.List()
	if err != nil {
		return err
	}
	for len(es) > s.opts.Retain {
		if err := os.RemoveAll(filepath.Join(s.dir, es[0].RunID)); err != nil {
			return err
		}
		es = es[1:]
	}
	return nil
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
