package main

import (
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

var (
	t0   = time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	pfxA = netaddr.MustParsePrefix("10.1.0.0/16")
	pfxB = netaddr.MustParsePrefix("10.2.0.0/16")
	hop1 = netaddr.MustParseAddr("192.0.2.1")
	hop2 = netaddr.MustParseAddr("192.0.2.2")
)

func ann(sec int, peer bgp.ASN, pfx netaddr.Prefix, hop netaddr.Addr, med uint32, path ...bgp.ASN) collector.Record {
	return collector.Record{
		Time: t0.Add(time.Duration(sec) * time.Second), Type: collector.Announce,
		PeerAS: peer, PeerAddr: netaddr.Addr(peer), Prefix: pfx,
		Attrs: bgp.Attrs{Path: bgp.PathFromASNs(path...), NextHop: hop, MED: med, HasMED: true},
	}
}

func wd(sec int, peer bgp.ASN, pfx netaddr.Prefix) collector.Record {
	return collector.Record{
		Time: t0.Add(time.Duration(sec) * time.Second), Type: collector.Withdraw,
		PeerAS: peer, PeerAddr: netaddr.Addr(peer), Prefix: pfx,
	}
}

func TestRefTaxonomyClasses(t *testing.T) {
	stream := []struct {
		rec  collector.Record
		want string
	}{
		{wd(0, 1, pfxA), "WWDup"},                     // never announced
		{ann(1, 1, pfxA, hop1, 0, 1, 7), "Other"},     // first announcement
		{ann(2, 1, pfxA, hop1, 5, 1, 7), "AADup"},     // MED only: same (hop, path)
		{ann(3, 1, pfxA, hop1, 5, 1, 8, 7), "AADiff"}, // new path in place
		{ann(4, 1, pfxA, hop2, 5, 1, 8, 7), "AADiff"}, // new next hop in place
		{wd(5, 1, pfxA), "Other"},                     // plain withdrawal
		{wd(6, 1, pfxA), "WWDup"},                     // repeated withdrawal
		{ann(7, 1, pfxA, hop2, 9, 1, 8, 7), "WADup"},  // back, unchanged tuple
		{wd(8, 1, pfxA), "Other"},
		{ann(9, 1, pfxA, hop1, 9, 1, 8, 7), "WADiff"}, // back via another hop
		{ann(10, 2, pfxA, hop1, 9, 1, 8, 7), "Other"}, // another peer: own history
		{ann(11, 1, pfxB, hop1, 9, 1, 8, 7), "Other"}, // another prefix: own history
		{collector.Record{Time: t0.Add(12 * time.Second), Type: collector.SessionDown, PeerAS: 1}, "Other"},
	}
	tax := newRefTaxonomy()
	for i, s := range stream {
		if got := classNames[tax.classify(s.rec)]; got != s.want {
			t.Errorf("update %d (%s): got %s, want %s", i, s.rec, got, s.want)
		}
	}
}

func TestRefFilter(t *testing.T) {
	a, w := entryOf(ann(10, 1, pfxA, hop1, 0, 1, 7)), entryOf(wd(20, 2, pfxB))
	cases := []struct {
		f      refFilter
		wa, ww bool
	}{
		{refFilter{}, true, true},
		{refFilter{from: a.t, to: w.t}, true, false},
		{refFilter{from: a.t + 1}, false, true},
		{refFilter{peer: 2}, false, true},
		{refFilter{origin: 7}, true, false}, // withdrawals carry no origin
		{refFilter{origin: 1}, false, false},
		{refFilter{prefix: pfxB}, false, true},
	}
	for i, c := range cases {
		if got := c.f.matchEntry(&a); got != c.wa {
			t.Errorf("case %d: announce match %v, want %v", i, got, c.wa)
		}
		if got := c.f.matchEntry(&w); got != c.ww {
			t.Errorf("case %d: withdraw match %v, want %v", i, got, c.ww)
		}
	}
}

func TestFingerprintOrderInsensitive(t *testing.T) {
	recs := []collector.Record{ann(1, 1, pfxA, hop1, 0, 1, 7), wd(2, 1, pfxA), ann(3, 2, pfxB, hop2, 0, 2, 9)}
	var fwd, rev fingerprint
	for i := range recs {
		fwd.add(recs[i])
		rev.add(recs[len(recs)-1-i])
	}
	if fwd != rev {
		t.Fatalf("order changed the fingerprint: %+v vs %+v", fwd, rev)
	}
	changed := recs[0]
	changed.Attrs.MED = 1
	var alt fingerprint
	alt.add(changed)
	alt.add(recs[1])
	alt.add(recs[2])
	if alt == fwd {
		t.Fatal("a changed attribute left the fingerprint unchanged")
	}
	var dup fingerprint
	dup.add(recs[0])
	dup.add(recs[0])
	dup.add(recs[1])
	if dup.n != 3 || dup == fwd {
		t.Fatal("a duplicated record went unnoticed")
	}
}
