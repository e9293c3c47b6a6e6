package topology

import (
	"encoding/binary"
)

// Key returns a canonical byte string uniquely identifying the link multiset
// (two LinkSets have equal keys iff Equal reports true). The encoding is the
// site count followed by the sorted links as (u, v, count) uvarint triples,
// mirroring the deterministic ordering of Links() and MarshalJSON. The key is
// compact enough to serve as a map key for energy memoization in
// internal/core.
func (ls *LinkSet) Key() string {
	return string(ls.AppendKey(nil))
}

// AppendKey appends the canonical key bytes (see Key) to buf and returns the
// extended slice. Passing buf[:0] of a retained buffer keeps the encoding
// itself allocation-free; the link enumeration still allocates, so callers on
// the energy hot path should enumerate with AppendLinks into their own
// scratch and use AppendKeyFromLinks directly.
func (ls *LinkSet) AppendKey(buf []byte) []byte {
	return AppendKeyFromLinks(buf, ls.N, ls.Links())
}

// AppendKeyFromLinks appends the canonical key encoding of a topology with n
// sites and the given (U, V)-sorted aggregated links to buf. The result is
// byte-identical to AppendKey on a LinkSet holding exactly those links, which
// is what lets internal/core key patched candidate topologies without
// materializing them.
func AppendKeyFromLinks(buf []byte, n int, links []Link) []byte {
	var tmp [binary.MaxVarintLen64]byte
	put := func(x int) {
		k := binary.PutUvarint(tmp[:], uint64(x))
		buf = append(buf, tmp[:k]...)
	}
	put(n)
	for _, l := range links {
		put(l.U)
		put(l.V)
		put(l.Count)
	}
	return buf
}

// KeyHash returns the 64-bit FNV-1a hash of a key produced by AppendKey /
// AppendKeyFromLinks. Unlike the key it can collide, so exact lookups must
// verify the full key bytes on a hash match (internal/core's provision
// cache does).
func KeyHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Hash returns a 64-bit FNV-1a hash of Key(). Unlike Key it can collide, so
// it suits fingerprinting and sharding; exact lookups should compare Key.
func (ls *LinkSet) Hash() uint64 {
	return KeyHash(ls.AppendKey(nil))
}

// MergePatch merges a sorted patch into a sorted base link list, appending
// the result to dst and returning the extended slice. Both inputs are
// (U, V)-sorted aggregated links; a patch entry carries the NEW count for its
// pair (Count 0 deletes the pair). Pairs absent from the patch keep their
// base count. The output is byte-for-byte the enumeration AppendLinks would
// produce for the patched multiset, so a retained base list plus a small
// patch substitutes for re-enumerating (and re-sorting) a whole LinkSet:
// internal/core enumerates its move-list candidates this way.
func MergePatch(dst []Link, base []Link, patch []Link) []Link {
	i, j := 0, 0
	for i < len(base) && j < len(patch) {
		b, p := base[i], patch[j]
		switch {
		case b.U < p.U || (b.U == p.U && b.V < p.V):
			dst = append(dst, b)
			i++
		case b.U == p.U && b.V == p.V:
			if p.Count > 0 {
				dst = append(dst, p)
			}
			i++
			j++
		default:
			if p.Count > 0 {
				dst = append(dst, p)
			}
			j++
		}
	}
	for ; i < len(base); i++ {
		dst = append(dst, base[i])
	}
	for ; j < len(patch); j++ {
		if patch[j].Count > 0 {
			dst = append(dst, patch[j])
		}
	}
	return dst
}

// DecodeKey parses a key produced by AppendKey / AppendKeyFromLinks back
// into the site count and the (U, V)-sorted link list, appending the links
// to dst. ok is false if the bytes are not a well-formed key. This is the
// inverse the provision-cache migration needs: cached entries are keyed by
// the encoded topology, and deciding whether an entry survives a network
// change requires walking its links.
func DecodeKey(key []byte, dst []Link) (n int, _ []Link, ok bool) {
	u64, k := binary.Uvarint(key)
	if k <= 0 {
		return 0, dst, false
	}
	key = key[k:]
	n = int(u64)
	for len(key) > 0 {
		var l Link
		for _, p := range []*int{&l.U, &l.V, &l.Count} {
			u64, k = binary.Uvarint(key)
			if k <= 0 {
				return 0, dst, false
			}
			key = key[k:]
			*p = int(u64)
		}
		dst = append(dst, l)
	}
	return n, dst, true
}
