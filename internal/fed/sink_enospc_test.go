package fed

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"semnids/internal/incident"
)

// exportAt returns the call-th staged export, sticking at the last.
func exportAt(call int64, exports []*incident.EvidenceExport) *incident.EvidenceExport {
	i := int(call) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(exports) {
		i = len(exports) - 1
	}
	return exports[i]
}

// enospcFile passes writes through to a real segment file until its
// switch flips, then fails them the way a full disk does.
type enospcFile struct {
	segmentFile
	fail *atomic.Bool
}

func (f enospcFile) Write(p []byte) (int, error) {
	if f.fail.Load() {
		return 0, errors.New("write evidence segment: no space left on device")
	}
	return f.segmentFile.Write(p)
}

// TestSinkDiskExhaustionDegrades drives the ENOSPC satellite: when the
// spool disk fills, checkpoints must fail visibly (WriteErrors), shed
// the oldest segments to free space, leave the newest committed state
// recoverable throughout, and resume cleanly once space returns —
// never wedging the sink goroutine.
func TestSinkDiskExhaustionDegrades(t *testing.T) {
	dir := t.TempDir()
	exports := stagedExports(t, 8)
	var calls atomic.Int64
	var diskFull atomic.Bool
	s, err := OpenSink(SinkConfig{
		Dir: dir,
		Retention: Retention{
			RotateBytes:     1, // every checkpoint rotates into a fresh segment
			CheckpointEvery: time.Hour,
			KeepSegments:    16, // retention out of the way: shedding is under test
		},
		Export: func() *incident.EvidenceExport {
			return exportAt(calls.Add(1), exports)
		},
		openSeg: func(path string) (segmentFile, error) {
			f, err := openSegFile(path)
			if err != nil {
				return nil, err
			}
			return enospcFile{segmentFile: f, fail: &diskFull}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Healthy phase: four checkpoints across four segments.
	for i := 0; i < 4; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("healthy checkpoint %d: %v", i, err)
		}
	}
	healthySegs, _ := listSegments(dir)
	if len(healthySegs) < 4 {
		t.Fatalf("%d segments after healthy phase, want >= 4", len(healthySegs))
	}
	lastHealthy := exportAt(calls.Load(), exports)

	// Disk full: checkpoints fail but must return (no wedge), count
	// write errors, and shed the oldest segments.
	diskFull.Store(true)
	for i := 0; i < 3; i++ {
		if err := s.Checkpoint(); err == nil {
			t.Fatalf("checkpoint %d on a full disk reported success", i)
		}
	}
	m := s.Metrics()
	if m.WriteErrors < 3 || m.Shed == 0 {
		t.Fatalf("metrics = %+v, want >=3 write errors with shedding", m)
	}
	// The newest committed checkpoint must have survived the shedding.
	got, err := Recover(dir)
	if err != nil || got == nil {
		t.Fatalf("recovery during exhaustion: export=%v err=%v", got, err)
	}
	if !reflect.DeepEqual(got.Sources, lastHealthy.Sources) {
		t.Fatalf("exhaustion shed the newest committed checkpoint")
	}

	// Space returns: the next checkpoint succeeds and recovery tracks
	// the new state.
	diskFull.Store(false)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after space returned: %v", err)
	}
	want := exportAt(calls.Load(), exports)
	got, err = Recover(dir)
	if err != nil || got == nil {
		t.Fatalf("recovery after healing: export=%v err=%v", got, err)
	}
	if !reflect.DeepEqual(got.Sources, want.Sources) {
		t.Fatalf("post-healing recovery diverged from the newest checkpoint")
	}
}
