package fed

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semnids/internal/incident"
	"semnids/internal/telemetry"
)

// segPrefix/segSuffix name sink segments: evidence-NNNNNN.seg,
// ordered by index.
const (
	segPrefix = "evidence-"
	segSuffix = ".seg"
)

// Retention is a sink's segment policy: when it rotates, how often it
// checkpoints unprompted, and how many segments it keeps. Zero fields
// take their defaults. A sensor's sink and an aggregator's hold the
// same policy.
type Retention struct {
	// RotateBytes rotates to a new segment once the current one grows
	// past this size (default 1 MiB).
	RotateBytes int64

	// RotateEvery rotates on segment age, wall clock, so a quiet sensor
	// still converges on a fresh compact segment (default 1 minute).
	RotateEvery time.Duration

	// CheckpointEvery writes a checkpoint even without notifications —
	// the safety net that persists evidence accumulating *below* a
	// stage transition, like a victim's targeted-by record (default
	// 10s).
	CheckpointEvery time.Duration

	// KeepSegments bounds retained rotated segments; older ones are
	// deleted (default DefaultKeepSegments, floored at MinKeepSegments
	// so the previous segment — the newest one guaranteed to hold a
	// committed checkpoint — always survives a rotation). On a pushing
	// sensor it is also the spool bound: segments pruned before they
	// were acked are dropped evidence.
	KeepSegments int
}

// DefaultKeepSegments and MinKeepSegments are Retention.KeepSegments'
// default and floor.
const (
	DefaultKeepSegments = 4
	MinKeepSegments     = 2
)

func (r Retention) withDefaults() Retention {
	if r.RotateBytes <= 0 {
		r.RotateBytes = 1 << 20
	}
	if r.RotateEvery <= 0 {
		r.RotateEvery = time.Minute
	}
	if r.CheckpointEvery <= 0 {
		r.CheckpointEvery = 10 * time.Second
	}
	if r.KeepSegments <= 0 {
		r.KeepSegments = DefaultKeepSegments
	} else if r.KeepSegments < MinKeepSegments {
		r.KeepSegments = MinKeepSegments
	}
	return r
}

// SinkConfig parameterizes a durable evidence sink.
type SinkConfig struct {
	// Dir is the segment directory (created if missing).
	Dir string

	// Export snapshots the correlator's evidence; called from the sink
	// goroutine only. A nil return skips the checkpoint.
	Export func() *incident.EvidenceExport

	Retention

	// Telemetry receives the sink's metric series: counters bridged at
	// scrape time plus the checkpoint fsync-latency histogram (the
	// floor under every durable ack). Nil creates a private registry.
	Telemetry *telemetry.Registry

	// source, when set, supplies checkpoints in place of Export: a
	// State hands its cached frames over (State.OpenSink).
	source func() (*snapshot, error)

	// openSeg opens a new segment file; a seam so tests can inject
	// write failures (ENOSPC) without a real full disk. Nil uses the
	// filesystem. Must preserve O_CREATE|O_EXCL semantics: an
	// existing-name collision must satisfy os.IsExist.
	openSeg func(path string) (segmentFile, error)
}

// segmentFile is the write surface of an open segment.
type segmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

func openSegFile(path string) (segmentFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

func (cfg SinkConfig) withDefaults() SinkConfig {
	cfg.Retention = cfg.Retention.withDefaults()
	if cfg.openSeg == nil {
		cfg.openSeg = openSegFile
	}
	if export := cfg.Export; cfg.source == nil && export != nil {
		cfg.source = func() (*snapshot, error) {
			if ex := export(); ex != nil {
				return exportSnapshot(ex), nil
			}
			return nil, nil
		}
	}
	return cfg
}

// SinkMetrics is a snapshot of sink counters.
type SinkMetrics struct {
	// Checkpoints counts committed evidence snapshots; Rotations
	// counts segment rollovers.
	Checkpoints, Rotations uint64

	// Dropped counts notifications that found the trigger queue full.
	// Nothing is lost — checkpoints are full snapshots, so a dropped
	// trigger coalesces into the one already pending — but a climbing
	// count means the sink is writing slower than stages are rising.
	Dropped uint64

	// Errors counts failed checkpoint writes (the sink keeps running
	// and retries on the next trigger).
	Errors uint64

	// WriteErrors counts segment write and rotate failures at the I/O
	// layer (ENOSPC, quota, a yanked volume). Each one degrades
	// gracefully: the sink sheds the oldest shed-eligible segment to
	// free space and retries on the next trigger, so a full spool disk
	// slows federation instead of wedging the engine.
	WriteErrors uint64

	// Shed counts segments deleted by disk-exhaustion shedding (not
	// by normal retention pruning). Shedding never touches the newest
	// committed segment or the one being written.
	Shed uint64
}

// Sink persists correlator evidence to size/age-rotated segment
// files. Notify is non-blocking and drop-counted, so the correlator's
// notify path never stalls on disk I/O; Close writes a final
// checkpoint. Recovery after a crash is Recover's job.
type Sink struct {
	cfg SinkConfig

	trigger chan struct{}
	syncReq chan chan error
	closing chan struct{}
	done    chan struct{}
	once    sync.Once
	killed  atomic.Bool

	m struct {
		checkpoints, rotations, dropped, errors atomic.Uint64
		writeErrors, shed                       atomic.Uint64
	}

	// fsyncNS times one checkpoint's frame+flush+fsync — the sink
	// goroutine's write cost and the latency floor of a durable ack.
	fsyncNS *telemetry.Histogram

	// Writer state, sink goroutine only. size counts the bytes handed
	// to the open segment.
	f        segmentFile
	bw       *bufio.Writer
	size     int64
	openedAt time.Time
	seq      uint64
	segIndex int

	// committedSeg is the newest segment index known to hold a
	// committed checkpoint: pruning spares it, so rotation can never
	// delete the only recoverable state while the fresh segment holds
	// just a header. Initialized to the newest surviving segment from
	// a previous process (best effort: that is what Recover would try
	// first).
	committedSeg int
}

// OpenSink creates (or reuses) the segment directory and starts the
// sink goroutine. New segments never clobber survivors from an
// earlier process: numbering resumes after the newest existing
// segment, which is exactly what Recover will read.
func OpenSink(cfg SinkConfig) (*Sink, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fed: sink needs a directory")
	}
	if cfg.source == nil {
		return nil, fmt.Errorf("fed: sink needs an Export snapshot function")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Sink{
		cfg:          cfg,
		trigger:      make(chan struct{}, 1),
		syncReq:      make(chan chan error),
		closing:      make(chan struct{}),
		done:         make(chan struct{}),
		committedSeg: -1,
	}
	if len(segs) > 0 {
		s.segIndex = segs[len(segs)-1].index + 1
		s.committedSeg = segs[len(segs)-1].index
	}
	s.registerTelemetry()
	go s.run()
	return s, nil
}

// registerTelemetry installs the sink's metric series.
func (s *Sink) registerTelemetry() {
	if s.cfg.Telemetry == nil {
		s.cfg.Telemetry = telemetry.NewRegistry()
	}
	reg := s.cfg.Telemetry
	reg.CounterFunc("semnids_sink_checkpoints_total", "Committed evidence checkpoints.", s.m.checkpoints.Load)
	reg.CounterFunc("semnids_sink_rotations_total", "Segment rollovers.", s.m.rotations.Load)
	reg.CounterFunc("semnids_sink_dropped_total", "Checkpoint triggers coalesced into a pending one.", s.m.dropped.Load)
	reg.CounterFunc("semnids_sink_errors_total", "Failed checkpoint writes (retried on the next trigger).", s.m.errors.Load)
	reg.CounterFunc("semnids_sink_write_errors_total", "Segment write/rotate failures at the I/O layer (ENOSPC); the sink sheds old segments and keeps running.", s.m.writeErrors.Load)
	reg.CounterFunc("semnids_sink_shed_total", "Segments deleted by disk-exhaustion shedding.", s.m.shed.Load)
	s.fsyncNS = reg.Histogram("semnids_sink_checkpoint_fsync_ns",
		"One checkpoint written durably: frame, flush and fsync.")
}

// Notify requests a checkpoint. Never blocks: a request arriving
// while one is already pending coalesces (counted in
// Metrics().Dropped). Safe from any goroutine, including the
// correlator's notify path.
func (s *Sink) Notify() {
	select {
	case s.trigger <- struct{}{}:
	default:
		s.m.dropped.Add(1)
	}
}

// Close writes a final checkpoint and closes the current segment.
// Idempotent.
func (s *Sink) Close() {
	s.once.Do(func() {
		close(s.closing)
		<-s.done
	})
}

// Kill stops the sink goroutine without the final checkpoint or
// flush — the crash `Recover` is specified against, as an API so
// fault drills and tests exercise the same abandonment a real kill
// produces. Durable state after Kill is exactly the checkpoints that
// were committed before it. Idempotent; Close after Kill is a no-op.
func (s *Sink) Kill() {
	s.killed.Store(true)
	s.once.Do(func() {
		close(s.closing)
		<-s.done
	})
}

// Checkpoint writes one evidence checkpoint synchronously: it returns
// after the snapshot is framed, flushed and fsynced (or with the
// write error). This is the durable-ack primitive — an aggregator
// responds 2xx only after Checkpoint returns nil, so an acked push
// can never be lost to a crash. Returns an error on a closed sink.
func (s *Sink) Checkpoint() error {
	reply := make(chan error, 1)
	select {
	case s.syncReq <- reply:
		select {
		case err := <-reply:
			return err
		case <-s.done:
			return fmt.Errorf("fed: sink closed")
		}
	case <-s.done:
		return fmt.Errorf("fed: sink closed")
	case <-s.closing:
		return fmt.Errorf("fed: sink closing")
	}
}

// Metrics returns current sink counters.
func (s *Sink) Metrics() SinkMetrics {
	return SinkMetrics{
		Checkpoints: s.m.checkpoints.Load(),
		Rotations:   s.m.rotations.Load(),
		Dropped:     s.m.dropped.Load(),
		Errors:      s.m.errors.Load(),
		WriteErrors: s.m.writeErrors.Load(),
		Shed:        s.m.shed.Load(),
	}
}

func (s *Sink) run() {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.CheckpointEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.closing:
			if s.killed.Load() {
				// Crash semantics: abandon the descriptor without flush
				// or final checkpoint — the tail stays whatever the last
				// committed write left behind.
				if s.f != nil {
					s.f.Close()
					s.f, s.bw = nil, nil
				}
				return
			}
			s.checkpoint()
			s.closeSegment()
			return
		case reply := <-s.syncReq:
			reply <- s.checkpoint()
			continue
		case <-s.trigger:
		case <-tick.C:
		}
		s.checkpoint()
	}
}

// checkpoint snapshots the evidence and appends one committed group,
// rotating first when the current segment is over size or age.
func (s *Sink) checkpoint() error {
	sn, err := s.cfg.source()
	if err != nil {
		s.m.errors.Add(1)
		return err
	}
	if sn == nil {
		return nil
	}
	if s.f == nil || s.size >= s.cfg.RotateBytes || time.Since(s.openedAt) >= s.cfg.RotateEvery {
		if err := s.rotate(sn.hdr); err != nil {
			s.m.errors.Add(1)
			s.degrade()
			return err
		}
	}
	s.seq++
	if err := s.append(sn); err != nil {
		s.m.errors.Add(1)
		// The segment tail is now suspect: force a fresh segment on the
		// next checkpoint rather than appending after a partial group.
		s.closeSegment()
		s.degrade()
		return err
	}
	s.committedSeg = s.segIndex - 1
	s.m.checkpoints.Add(1)
	return nil
}

// rotate closes the current segment, opens the next, writes its
// header, and prunes old segments.
func (s *Sink) rotate(hdr *header) error {
	s.closeSegment()
	var f segmentFile
	for {
		var err error
		f, err = s.cfg.openSeg(filepath.Join(s.cfg.Dir, segName(s.segIndex)))
		if err == nil {
			break
		}
		if !os.IsExist(err) {
			return err
		}
		// Someone else owns this name (a concurrent process, a
		// survivor the startup scan raced). Never reuse it — advance
		// and retry, or the sink would wedge on the same name forever.
		s.segIndex++
	}
	s.f = f
	s.bw = bufio.NewWriterSize(sizeCounter{f, &s.size}, segmentBufBytes)
	s.size = 0
	s.openedAt = time.Now()
	s.segIndex++
	s.m.rotations.Add(1)
	if err := s.writeFrames(func(bw *bufio.Writer) error {
		return writeRecord(bw, &wireRecord{Kind: kindHeader, Hdr: hdr})
	}); err != nil {
		s.closeSegment()
		return err
	}
	s.prune()
	return nil
}

// append writes one committed checkpoint group and syncs it to disk.
func (s *Sink) append(sn *snapshot) error {
	t0 := time.Now()
	err := s.writeFrames(func(bw *bufio.Writer) error {
		return writeCheckpoint(bw, s.seq, sn)
	})
	if err == nil {
		s.fsyncNS.Observe(time.Since(t0).Nanoseconds())
	}
	return err
}

// writeFrames runs one framed write against the current segment,
// flushing and syncing it.
func (s *Sink) writeFrames(write func(*bufio.Writer) error) error {
	if s.f == nil {
		return fmt.Errorf("fed: no open segment")
	}
	if err := write(s.bw); err != nil {
		return err
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// segmentBufBytes sizes a segment's write buffer: a checkpoint is
// megabytes of frames of a few hundred bytes each, so the default 4 KiB
// buffer would cost a write call per eight frames.
const segmentBufBytes = 64 << 10

// sizeCounter adds what reaches the segment file to the sink's size
// account, which decides rotation.
type sizeCounter struct {
	w    io.Writer
	size *int64
}

func (c sizeCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.size += int64(n)
	return n, err
}

func (s *Sink) closeSegment() {
	if s.f == nil {
		return
	}
	s.bw.Flush()
	s.f.Sync()
	s.f.Close()
	s.f, s.bw = nil, nil
}

// degrade is the disk-exhaustion path: count the I/O failure and free
// space by shedding the oldest shed-eligible segment, so a full spool
// disk converges on "newest evidence retained, oldest shed" instead of
// wedging every subsequent checkpoint. Checkpoints are full snapshots,
// so shed history is re-covered by the next successful write; what is
// lost is only spool depth for a disconnected upstream.
func (s *Sink) degrade() {
	s.m.writeErrors.Add(1)
	s.shedOldest()
}

// shedOldest deletes the oldest segment that is neither the newest
// committed checkpoint nor the segment currently being written.
// Reports whether anything was shed.
func (s *Sink) shedOldest() bool {
	segs, err := listSegments(s.cfg.Dir)
	if err != nil {
		return false
	}
	open := -1
	if s.f != nil {
		open = s.segIndex - 1
	}
	for _, seg := range segs {
		if seg.index == s.committedSeg || seg.index == open {
			continue
		}
		if os.Remove(filepath.Join(s.cfg.Dir, seg.name)) == nil {
			s.m.shed.Add(1)
			return true
		}
	}
	return false
}

// prune deletes segments beyond the retention budget, oldest first —
// but never the newest segment known to hold a committed checkpoint:
// until the freshly-rotated segment commits its first checkpoint, the
// previous one is the only recoverable state, and deleting it would
// turn a crash in that window into total evidence loss.
func (s *Sink) prune() {
	segs, err := listSegments(s.cfg.Dir)
	if err != nil {
		return
	}
	excess := len(segs) - s.cfg.KeepSegments
	for _, seg := range segs {
		if excess <= 0 {
			return
		}
		if seg.index == s.committedSeg {
			continue
		}
		os.Remove(filepath.Join(s.cfg.Dir, seg.name))
		excess--
	}
}

type segment struct {
	name  string
	index int
}

func segName(index int) string {
	return fmt.Sprintf("%s%06d%s", segPrefix, index, segSuffix)
}

// listSegments returns the directory's segments sorted oldest first.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), "%d", &idx); err != nil {
			continue
		}
		segs = append(segs, segment{name: name, index: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

// SegmentInfo describes one on-disk sink segment.
type SegmentInfo struct {
	// Name is the file name within the sink directory.
	Name string
	// Index is the segment's rotation sequence number; higher is newer.
	Index int
	// Size is the current file size in bytes. For the newest segment —
	// the one still being appended to — it grows with each checkpoint.
	Size int64
}

// Segments lists a sink directory's segments oldest first, with
// sizes — the push transport's view of the spool. A missing directory
// is an empty spool, not an error (the sensor may not have produced
// evidence yet). Segments that disappear between listing and use were
// pruned; callers must treat that as a normal outcome.
func Segments(dir string) ([]SegmentInfo, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(segs))
	for _, seg := range segs {
		fi, err := os.Stat(filepath.Join(dir, seg.name))
		if err != nil {
			continue // pruned mid-listing
		}
		out = append(out, SegmentInfo{Name: seg.name, Index: seg.index, Size: fi.Size()})
	}
	return out, nil
}

// Recover loads the newest recoverable evidence state from a sink
// directory: segments are tried newest first, and within a segment
// the newest committed checkpoint wins — so a crash mid-rotation or
// mid-checkpoint (a partial final segment) falls back to the last
// state that was durably committed. Returns (nil, nil) when there is
// nothing to recover (no directory, no segments, or no segment with a
// committed checkpoint — a sensor that never completed a write starts
// fresh rather than failing to start).
func Recover(dir string) (*incident.EvidenceExport, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	for i := len(segs) - 1; i >= 0; i-- {
		f, err := os.Open(filepath.Join(dir, segs[i].name))
		if err != nil {
			continue
		}
		ex, err := ReadExport(f)
		f.Close()
		if err == nil {
			return ex, nil
		}
	}
	return nil, nil
}
