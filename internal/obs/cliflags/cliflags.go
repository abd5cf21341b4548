// Package cliflags registers the shared observability flag set on a
// CLI's flag.FlagSet and assembles the runtime attachments they select
// — trace observers, progress logging, a Chrome-trace exporter, the
// stall watchdog, the run archive, CPU/heap profiles — so every command
// in this repository exposes the same observability surface with one
// helper instead of five hand-rolled copies.
//
// Usage:
//
//	flags := cliflags.Register(fs)          // add -report, -trace, …
//	fs.Parse(args)
//	sess, err := flags.Start(os.Stderr)     // open files and tracers
//	defer sess.Close()
//	cfg.Observer = sess.Observer
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"proclus/internal/obs"
	"proclus/internal/obs/archive"
)

// Flags holds the parsed observability flag values.
type Flags struct {
	// Report is the -report path: a machine-readable JSON run report.
	// Empty when the owning CLI registered WithoutReport.
	Report string
	// Trace is the -trace path: a JSON-lines event trace.
	Trace string
	// Progress is -progress: human-readable progress lines on stderr.
	Progress bool
	// ChromeTrace is the -chrometrace path: a Chrome trace_event file
	// loadable in chrome://tracing or Perfetto.
	ChromeTrace string
	// StallIters is -stall-iters: trip the stall watchdog when a
	// restart's objective fails to improve for this many consecutive
	// iterations. Zero disables the check. The three stall flags are
	// installed only when the owning CLI registered WithStall.
	StallIters int
	// StallDeadline is -stall-deadline: trip the watchdog when no
	// progress event arrives for this long. Zero disables the check.
	StallDeadline time.Duration
	// StallCancel is -stall-cancel: on the first stall, cancel the run's
	// context (obtained via Session.Context) instead of only reporting.
	StallCancel bool
	// Archive is the -archive directory: an append-only run store that
	// accumulates completed runs' reports, one file per run, for
	// cross-run analysis (runlens ls/diff/trend). Empty unless the
	// owning CLI registered WithArchive.
	Archive string
	// ArchiveKeep is -archive-keep: retain only the newest N archive
	// entries, garbage-collecting older ones. Zero keeps everything.
	ArchiveKeep int
	// CPUProfile and MemProfile are the -cpuprofile/-memprofile paths.
	CPUProfile string
	MemProfile string
}

type options struct {
	report  bool
	archive bool
	stall   bool
}

// Option adjusts which flags Register installs.
type Option func(*options)

// WithoutReport suppresses the -report flag, for CLIs that define their
// own -report with different semantics (proclus-bench's timing array).
func WithoutReport() Option { return func(o *options) { o.report = false } }

// WithArchive installs -archive and -archive-keep, for CLIs that save
// their completed runs with Session.ArchiveRun. Elsewhere the flags
// would be accepted and do nothing, so they are off by default.
func WithArchive() Option { return func(o *options) { o.archive = true } }

// WithStall installs -stall-iters, -stall-deadline and -stall-cancel,
// for CLIs whose runs emit the progress events the watchdog reads
// (PROCLUS and CLIQUE fits observed through Session.Observer).
// Elsewhere the flags would be accepted and do nothing, so they are off
// by default.
func WithStall() Option { return func(o *options) { o.stall = true } }

// Register installs the observability flags on fs and returns the
// destination values, to be read after fs.Parse.
func Register(fs *flag.FlagSet, opts ...Option) *Flags {
	o := options{report: true}
	for _, opt := range opts {
		opt(&o)
	}
	f := &Flags{}
	if o.report {
		fs.StringVar(&f.Report, "report", "", "write a machine-readable JSON run report to this path")
	}
	fs.StringVar(&f.Trace, "trace", "", "write a JSON-lines event trace to this path")
	fs.BoolVar(&f.Progress, "progress", false, "log human-readable progress to stderr")
	fs.StringVar(&f.ChromeTrace, "chrometrace", "", "write a Chrome trace_event file to this path (open in chrome://tracing or Perfetto)")
	if o.stall {
		fs.IntVar(&f.StallIters, "stall-iters", 0, "emit a stall event when a restart's objective fails to improve for this many consecutive iterations (0 disables)")
		fs.DurationVar(&f.StallDeadline, "stall-deadline", 0, "emit a stall event when no progress event arrives for this long (0 disables)")
		fs.BoolVar(&f.StallCancel, "stall-cancel", false, "cancel the run on the first stall instead of only reporting it")
	}
	if o.archive {
		fs.StringVar(&f.Archive, "archive", "", "append this run's report to the run archive at this directory (inspect with runlens ls/diff/trend)")
		fs.IntVar(&f.ArchiveKeep, "archive-keep", 0, "retain only the newest N archive entries, deleting older ones after each save (0 keeps everything)")
	}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this path on exit")
	return f
}

// Session is the live state behind one CLI invocation's observability
// flags. Zero-valued fields mean the corresponding flag was unset.
type Session struct {
	// Observer fans out to every observer the flags selected (JSON
	// tracer, progress logger, Chrome tracer); nil when none were,
	// preserving the algorithms' nil fast path.
	Observer obs.Observer
	// Watchdog is the stall watchdog wrapping the session's observers,
	// non-nil when -stall-iters or -stall-deadline is set. Its Stalled
	// state is reported by Close.
	Watchdog *obs.Watchdog
	// Archive is the run store -archive opened, nil without the flag.
	// Completed runs land in it via ArchiveRun.
	Archive *archive.Store

	errw    io.Writer
	closers []func() error

	mu        sync.Mutex
	cancelRun context.CancelFunc
}

// Start opens the files and tracers the flags ask for. Progress lines
// and archive and stall notices go to errw (typically os.Stderr). On
// error, anything already opened is closed.
func (f *Flags) Start(errw io.Writer) (*Session, error) {
	s := &Session{errw: errw}
	fail := func(err error) (*Session, error) {
		s.Close()
		return nil, err
	}
	if f.Archive != "" {
		st, err := archive.Open(f.Archive, archive.Options{Retain: f.ArchiveKeep})
		if err != nil {
			return fail(err)
		}
		s.Archive = st
	}

	stopProfiles, err := obs.StartProfiles(f.CPUProfile, f.MemProfile)
	if err != nil {
		return fail(err)
	}
	s.closers = append(s.closers, stopProfiles)

	var observers []obs.Observer
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return fail(err)
		}
		tracer := obs.NewJSONTracer(file)
		observers = append(observers, tracer)
		s.closers = append(s.closers, func() error {
			if err := file.Close(); err != nil {
				return err
			}
			return tracer.Err()
		})
	}
	if f.ChromeTrace != "" {
		file, err := os.Create(f.ChromeTrace)
		if err != nil {
			return fail(err)
		}
		tracer := obs.NewChromeTracer(file)
		observers = append(observers, tracer)
		s.closers = append(s.closers, func() error {
			if err := tracer.Close(); err != nil {
				file.Close()
				return err
			}
			return file.Close()
		})
	}
	if f.Progress {
		observers = append(observers, obs.NewProgressLogger(errw))
	}
	s.Observer = obs.Multi(observers...)
	if f.StallIters > 0 || f.StallDeadline > 0 {
		opts := obs.WatchdogOptions{
			NoImprove: f.StallIters,
			Deadline:  f.StallDeadline,
			Next:      s.Observer,
		}
		if f.StallCancel {
			opts.Cancel = s.cancelInFlight
		}
		s.Watchdog = obs.NewWatchdog(opts)
		s.Observer = s.Watchdog
	}
	return s, nil
}

// Context derives a cancellable context for the run and wires it to the
// watchdog: with -stall-cancel set, the first stall cancels it. Always
// safe to call — without stall flags it is a plain context.WithCancel.
func (s *Session) Context(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	s.mu.Lock()
	s.cancelRun = cancel
	s.mu.Unlock()
	return ctx, cancel
}

// cancelInFlight is the watchdog's cancel hook: it aborts whatever
// context Session.Context last handed out.
func (s *Session) cancelInFlight() {
	s.mu.Lock()
	cancel := s.cancelRun
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// ArchiveRun appends one completed run's report to the session's
// archive, stamping the recording git revision. Without -archive it is
// a no-op returning an empty ID, so CLIs call it unconditionally.
func (s *Session) ArchiveRun(rep *obs.RunReport) (string, error) {
	if s == nil || s.Archive == nil || rep == nil {
		return "", nil
	}
	id, err := s.Archive.Save(archive.Entry{GitRev: archive.GitRev(), Report: rep})
	if err != nil {
		return "", fmt.Errorf("archiving run: %w", err)
	}
	if s.errw != nil {
		fmt.Fprintf(s.errw, "archived run %s in %s\n", id, s.Archive.Dir())
	}
	return id, nil
}

// Observe forwards an event to the session's observer. Safe with no
// observers attached (Observer nil) and on a nil session, so CLIs can
// emit their own run events unconditionally.
func (s *Session) Observe(e obs.Event) {
	if s == nil || s.Observer == nil {
		return
	}
	s.Observer.Observe(e)
}

// Close stops the watchdog and runs every cleanup (trace file closes,
// Chrome-trace serialization, profile stops), returning the first
// error.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var first error
	if s.Watchdog != nil {
		s.Watchdog.Stop()
		if stall, ok := s.Watchdog.Stalled(); ok && s.errw != nil {
			switch stall.Reason {
			case obs.StallDeadline:
				fmt.Fprintf(s.errw, "warning: run stalled: no progress events for %.1fs\n", stall.Seconds)
			default:
				fmt.Fprintf(s.errw, "warning: run stalled: restart %d stuck for %.0f iterations\n",
					stall.Restart, stall.Seconds)
			}
		}
	}
	// Close in reverse creation order, profiles last.
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}
