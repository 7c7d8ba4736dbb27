package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"instability/internal/faults"
)

// The store's two append-only logs — the WAL and the alert SidecarLog — share
// one frame format:
//
//	u32 payloadLen | payload | u32 crc32(payload)
//
// A torn tail (crash mid-write) fails the length or checksum test, so replay
// stops at the last intact frame. Opening a log truncates whatever follows
// that frame, and a failed append rolls the file back to it, so appends
// always land on a clean frame boundary: a frame written after a torn one
// would be unreachable, since replay stops at the tear.

// frameOverhead is the length prefix plus the checksum.
const frameOverhead = 8

// frameStart appends a frame's length placeholder to b. The caller appends
// the payload and then seals the frame with frameEnd, passing len(b) as it
// was before frameStart, so payloads are built in place with no scratch copy.
func frameStart(b []byte) []byte { return append(b, 0, 0, 0, 0) }

// frameEnd patches the length of the frame that starts at b[at:] and appends
// its checksum.
func frameEnd(b []byte, at int) []byte {
	payload := b[at+4:]
	binary.BigEndian.PutUint32(b[at:], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// scanFrames walks the intact frames at the start of data, calling each
// (when non-nil) with every payload, and returns the offset just past the
// last intact frame and the number of frames passed to each. The scan stops
// at the first torn or corrupt frame, or at the first error from each, which
// it returns; the offset is then that frame's start.
func scanFrames(data []byte, each func(payload []byte) error) (off int64, n int, err error) {
	for b := data; len(b) >= frameOverhead; {
		plen := int(binary.BigEndian.Uint32(b))
		if plen <= 0 || plen > len(b)-frameOverhead {
			break // torn tail
		}
		payload := b[4 : 4+plen]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[4+plen:]) {
			break // corrupt tail
		}
		if each != nil {
			if err := each(payload); err != nil {
				return off, n, err
			}
		}
		n++
		off += int64(plen + frameOverhead)
		b = b[plen+frameOverhead:]
	}
	return off, n, nil
}

// frameLog is an open framed log positioned for appends.
type frameLog struct {
	f   faults.File
	off int64 // end of the last intact frame: where the next append lands
	err error // sticky: a failed append whose rollback also failed
}

// openFrameLog opens (creating if absent) the framed log at path and replays
// its intact frames into each. An error from each ends the replay the way a
// torn frame does. Whatever follows the last replayed frame is physically
// truncated — not merely skipped — so the next append does not bury readable
// frames behind garbage.
func openFrameLog(fsys faults.FS, path string, each func(payload []byte) error) (*frameLog, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// The error is each's verdict on a payload; it only marks where replay
	// ends, and the offset already says that.
	off, _, _ := scanFrames(data, each)
	if off < int64(len(data)) {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &frameLog{f: f, off: off}, nil
}

// append writes pre-encoded frames in one write (a group commit), fsyncing
// when sync is set. An append is all or nothing: if the write or the sync
// fails, the file is truncated back to the last good offset and repositioned
// there, so a retried append lands on a frame boundary instead of behind the
// partial frame a short write left. If that rollback fails too, the log is
// unusable and returns the rollback error from every later append.
func (l *frameLog) append(frames []byte, sync bool) error {
	if l.err != nil {
		return l.err
	}
	if len(frames) == 0 {
		return nil
	}
	_, err := l.f.Write(frames)
	if err == nil && sync {
		err = l.f.Sync()
	}
	if err != nil {
		rerr := l.f.Truncate(l.off)
		if rerr == nil {
			_, rerr = l.f.Seek(l.off, io.SeekStart)
		}
		if rerr != nil {
			l.err = fmt.Errorf("store: %s unusable: rollback after failed append: %w", l.f.Name(), rerr)
		}
		return err
	}
	l.off += int64(len(frames))
	return nil
}

func (l *frameLog) size() int64 { return l.off }

func (l *frameLog) close() error { return l.f.Close() }
