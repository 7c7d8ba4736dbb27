package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"instability/internal/faults"
)

type sideEntry struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func readSideEntries(t *testing.T, path string) []sideEntry {
	t.Helper()
	var out []sideEntry
	n, err := ReadSidecarLog(path, func(payload []byte) error {
		var e sideEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			return err
		}
		out = append(out, e)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadSidecarLog: %v", err)
	}
	if n != len(out) {
		t.Fatalf("ReadSidecarLog count %d, got %d entries", n, len(out))
	}
	return out
}

func TestSidecarLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.log")
	l, err := OpenSidecarLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(sideEntry{N: i, S: "entry"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := readSideEntries(t, path)
	if len(got) != 5 {
		t.Fatalf("got %d entries, want 5", len(got))
	}
	for i, e := range got {
		if e.N != i || e.S != "entry" {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

func TestSidecarLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.log")
	l, err := OpenSidecarLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(sideEntry{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a torn frame: a length header promising
	// more bytes than the file holds.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reads stop at the torn frame; reopening truncates it and appends
	// land on a clean boundary.
	if got := readSideEntries(t, path); len(got) != 3 {
		t.Fatalf("got %d entries before reopen, want 3", len(got))
	}
	l, err = OpenSidecarLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sideEntry{N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := readSideEntries(t, path)
	if len(got) != 4 || got[3].N != 3 {
		t.Fatalf("after reopen got %+v, want 4 entries ending in n=3", got)
	}
}

func TestSidecarLogCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.log")
	l, err := OpenSidecarLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Append(sideEntry{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(sideEntry{N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the last frame's payload: its checksum fails and
	// the reader must stop after the two intact entries.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readSideEntries(t, path); len(got) != 2 {
		t.Fatalf("got %d entries, want 2 (corrupt tail dropped)", len(got))
	}
}

func TestSidecarLogMissingFile(t *testing.T) {
	n, err := ReadSidecarLog(filepath.Join(t.TempDir(), "nope.log"), func([]byte) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v, want 0,nil", n, err)
	}
}

// TestSidecarRetryAfterTornWrite is the sidecar twin of
// TestWALRetryAfterTornWrite: appends acknowledged after a torn append must
// survive, which they cannot if they land behind the partial frame.
func TestSidecarRetryAfterTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.log")
	inj := faults.NewInjector(faults.Disk{}, faults.Plan{Seed: 3, TornWriteN: 1})
	l, err := OpenSidecarLogFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sideEntry{N: -1, S: "torn"}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("torn append error = %v, want injected", err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(sideEntry{N: i, S: "entry"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := readSideEntries(t, path)
	if len(got) != 5 {
		t.Fatalf("read back %d entries, want the 5 acknowledged", len(got))
	}
	for i, e := range got {
		if e.N != i {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}
