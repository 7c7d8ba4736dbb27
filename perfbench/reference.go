package main

// The reference: a taxonomy, a record filter and a record fingerprint
// written apart from the program, so that every workload's outputs are
// checked against computations that share no code with the classifier,
// the store's predicates or its codecs.

import (
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// classNames lists the taxonomy in the order of the ref* constants; the
// strings are the paper's names, which the program also prints.
var classNames = [6]string{"Other", "AADiff", "AADup", "WADiff", "WADup", "WWDup"}

const (
	refOther uint8 = iota
	refAADiff
	refAADup
	refWADiff
	refWADup
	refWWDup
	numRefClasses
)

type refKey struct {
	peerAS   bgp.ASN
	peerAddr netaddr.Addr
	prefix   netaddr.Prefix
}

type refState struct {
	announced, ever bool
	nextHop         netaddr.Addr
	path            bgp.ASPath
}

// refTaxonomy classifies updates by the history of each (peer, prefix):
// whether it is announced now, whether it was ever announced, and the last
// announced (next hop, AS path).
type refTaxonomy struct {
	states map[refKey]*refState
}

func newRefTaxonomy() *refTaxonomy {
	return &refTaxonomy{states: make(map[refKey]*refState)}
}

func (t *refTaxonomy) classify(rec collector.Record) uint8 {
	if rec.Type != collector.Announce && rec.Type != collector.Withdraw {
		return refOther
	}
	k := refKey{rec.PeerAS, rec.PeerAddr, rec.Prefix}
	st := t.states[k]
	if st == nil {
		st = &refState{}
		t.states[k] = st
	}
	if rec.Type == collector.Withdraw {
		if !st.announced {
			return refWWDup
		}
		st.announced = false
		return refOther
	}
	same := st.nextHop == rec.Attrs.NextHop && samePath(st.path, rec.Attrs.Path)
	c := refOther
	switch {
	case st.announced && same:
		c = refAADup
	case st.announced:
		c = refAADiff
	case st.ever && same:
		c = refWADup
	case st.ever:
		c = refWADiff
	}
	st.announced, st.ever = true, true
	st.nextHop, st.path = rec.Attrs.NextHop, rec.Attrs.Path
	return c
}

func samePath(a, b bgp.ASPath) bool {
	if len(a.Segments) != len(b.Segments) {
		return false
	}
	for i := range a.Segments {
		x, y := a.Segments[i], b.Segments[i]
		if x.Type != y.Type || len(x.ASNs) != len(y.ASNs) {
			return false
		}
		for j := range x.ASNs {
			if x.ASNs[j] != y.ASNs[j] {
				return false
			}
		}
	}
	return true
}

// refOrigin is the AS that originated an announcement: the last ASN of the
// last non-empty path segment, or the first member when that segment is an
// AS_SET (an aggregate has no single origin).
func refOrigin(rec collector.Record) (bgp.ASN, bool) {
	if rec.Type != collector.Announce {
		return 0, false
	}
	segs := rec.Attrs.Path.Segments
	for i := len(segs) - 1; i >= 0; i-- {
		asns := segs[i].ASNs
		switch {
		case len(asns) == 0:
			continue
		case segs[i].Type == bgp.ASSet:
			return asns[0], true
		}
		return asns[len(asns)-1], true
	}
	return 0, false
}

// refFilter is the reference form of a store query: half-open [from, to)
// in Unix nanoseconds (0 leaves a side open), and optional peer, origin
// and exact-prefix predicates.
type refFilter struct {
	from, to int64
	peer     bgp.ASN
	origin   bgp.ASN
	prefix   netaddr.Prefix
}

// fingerprint is an order-insensitive digest of a record multiset: the
// count and the wrapping sum of per-record hashes. Two streams holding the
// same records in any order agree; a lost, duplicated or altered record
// changes it.
type fingerprint struct {
	n   int
	sum uint64
}

func (f *fingerprint) add(rec collector.Record) {
	f.n++
	f.sum += recordHash(rec)
}

func (f *fingerprint) addHash(h uint64) {
	f.n++
	f.sum += h
}

// recordHash mixes every field a record carries.
func recordHash(rec collector.Record) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	mix := func(v uint64) {
		h ^= v
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	mix(uint64(rec.Time.UnixNano()))
	mix(uint64(rec.Type)<<48 | uint64(rec.PeerAS)<<32 | uint64(rec.PeerAddr))
	mix(uint64(rec.Prefix.Addr())<<8 | uint64(rec.Prefix.Bits()))
	if rec.Type != collector.Announce {
		return h
	}
	a := rec.Attrs
	mix(uint64(a.Origin)<<32 | uint64(a.NextHop))
	for _, s := range a.Path.Segments {
		mix(uint64(s.Type)<<32 | uint64(len(s.ASNs)))
		for _, as := range s.ASNs {
			mix(uint64(as))
		}
	}
	mix(boolBits(a.HasMED)<<32 | uint64(a.MED))
	mix(boolBits(a.HasLocalPref)<<32 | uint64(a.LocalPref))
	mix(boolBits(a.AtomicAggregate)<<1 | boolBits(a.HasAggregator))
	mix(uint64(a.AggregatorAS)<<32 | uint64(a.AggregatorAddr))
	mix(uint64(len(a.Communities)))
	for _, c := range a.Communities {
		mix(uint64(c))
	}
	return h
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// dayOf is the UTC day number of a Unix-nanosecond time.
func dayOf(ns int64) int64 { return ns / int64(24*time.Hour) }
