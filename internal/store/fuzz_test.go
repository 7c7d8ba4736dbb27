package store

import (
	"bytes"
	"testing"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// fuzzDict is the fixed two-entry attribute dictionary the v2 decode fuzzer
// resolves indexes against.
func fuzzDict() []bgp.Attrs {
	return []bgp.Attrs{
		{Origin: bgp.OriginIGP, Path: bgp.PathFromASNs(3561, 701), NextHop: 0x0a000001},
		{
			Origin:      bgp.OriginEGP,
			Path:        bgp.PathFromASNs(1239, 690),
			NextHop:     0xc0a80101,
			Communities: []bgp.Community{0x02bd0001},
		},
	}
}

func fuzzSeedRecords(tb testing.TB) [][]byte {
	dict := fuzzDict()
	recs := []collector.Record{
		{
			Type: collector.Announce, PeerAS: 3561, PeerAddr: 0x0a000001,
			Prefix: mustPrefix(tb, 0xc0a80000, 16), Attrs: dict[0],
		},
		{
			Type: collector.Withdraw, PeerAS: 690, PeerAddr: 0x0a000002,
			Prefix: mustPrefix(tb, 0x0a000000, 8),
		},
		{Type: collector.SessionUp, PeerAS: 1239, PeerAddr: 0x0a000003, Prefix: mustPrefix(tb, 0, 0)},
	}
	var out [][]byte
	for _, rec := range recs {
		v1, err := appendRecordTail(nil, rec, nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, v1, appendRecordTailV2(nil, rec, 0))
	}
	return out
}

func mustPrefix(tb testing.TB, addr netaddr.Addr, bits int) netaddr.Prefix {
	tb.Helper()
	p, err := netaddr.PrefixFrom(addr, bits)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// FuzzDecodeRecordTail exercises the v1 (inline attributes) record decoder on
// arbitrary bytes: it must reject or round-trip, never panic. Anything that
// decodes is re-encoded and decoded again, and both decodes must agree.
func FuzzDecodeRecordTail(f *testing.F) {
	for _, b := range fuzzSeedRecords(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec collector.Record
		rest, err := decodeRecordTail(data, &rec)
		if err != nil {
			return
		}
		used := len(data) - len(rest)
		enc, err := appendRecordTail(nil, rec, nil)
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %v", err)
		}
		var rec2 collector.Record
		rest2, err := decodeRecordTail(enc, &rec2)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encoded record failed to decode cleanly: %v (%d trailing)", err, len(rest2))
		}
		if !sameRecord(rec, rec2) {
			t.Fatalf("round-trip changed record: %+v != %+v", rec, rec2)
		}
		if used <= 0 {
			t.Fatalf("decode consumed %d bytes", used)
		}
	})
}

// FuzzDecodeRecordTailV2 exercises the v2 (dictionary index) record decoder
// against a fixed two-entry dictionary. Out-of-range indexes must fail as
// ErrCorrupt; in-range decodes must round-trip through appendRecordTailV2.
func FuzzDecodeRecordTailV2(f *testing.F) {
	for _, b := range fuzzSeedRecords(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dict := fuzzDict()
		var rec collector.Record
		_, err := decodeRecordTailV2(data, &rec, dict)
		if err != nil {
			return
		}
		idx := -1
		if rec.Type == collector.Announce {
			for i := range dict {
				if rec.Attrs.PolicyEqual(dict[i]) {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Fatalf("decoded attrs not in dictionary: %+v", rec.Attrs)
			}
		}
		enc := appendRecordTailV2(nil, rec, idx)
		var rec2 collector.Record
		rest, err := decodeRecordTailV2(enc, &rec2, dict)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded record failed to decode cleanly: %v (%d trailing)", err, len(rest))
		}
		if !sameRecord(rec, rec2) {
			t.Fatalf("round-trip changed record: %+v != %+v", rec, rec2)
		}
	})
}

func sameRecord(a, b collector.Record) bool {
	return a.Type == b.Type && a.PeerAS == b.PeerAS && a.PeerAddr == b.PeerAddr &&
		a.Prefix == b.Prefix && a.Attrs.PolicyEqual(b.Attrs) &&
		a.Attrs.NextHop == b.Attrs.NextHop
}

// FuzzFrameScan exercises log replay — the WAL's and the sidecar's — on
// arbitrary bytes. It must never panic; the offset it stops at must lie
// within the input; and re-framing the payloads it yielded must reproduce
// exactly the bytes before that offset, which also makes the offset a frame
// boundary.
func FuzzFrameScan(f *testing.F) {
	var wal []byte
	for i, rec := range []collector.Record{faultRecord(0), faultRecord(1), faultRecord(2)} {
		var err error
		if wal, err = appendWALFrame(wal, 0, uint64(i+1), rec, nil); err != nil {
			f.Fatal(err)
		}
	}
	side := frameEnd(append(frameStart(nil), `{"n":1}`...), 0)
	f.Add([]byte{})
	f.Add(wal)
	f.Add(wal[:len(wal)-3])                        // torn tail
	f.Add(append(append([]byte{}, side...), 0, 0)) // garbage tail
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})          // zero-length frame
	f.Fuzz(func(t *testing.T, data []byte) {
		var reframed []byte
		off, n, err := scanFrames(data, func(p []byte) error {
			at := len(reframed)
			reframed = frameEnd(append(frameStart(reframed), p...), at)
			return nil
		})
		if err != nil {
			t.Fatalf("scan error with an accepting callback: %v", err)
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d outside input of %d bytes", off, len(data))
		}
		if !bytes.Equal(reframed, data[:off]) {
			t.Fatalf("%d re-framed payloads (%d bytes) differ from the %d replayed bytes", n, len(reframed), off)
		}
	})
}
