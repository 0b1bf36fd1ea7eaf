package query

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"geostreams/internal/valueset"
)

// Signature returns the canonical structural signature of a plan: operator
// labels (which carry every parameter) plus source identity, composed
// recursively. Two plans with equal signatures denote the same GeoStream
// and may be mounted on the same shared trunk.
//
// Commutative compositions (+, ×, sup, inf) are normalized by sorting the
// two child signatures, so A+B and B+A canonicalize identically. This
// preserves bit-identical outputs: IEEE-754 addition, multiplication, max
// and min are commutative (including NaN propagation as the composition
// implements it), only non-associative — and the rewrite never reassociates.
// Subtraction and division keep their operand order.
//
// The signature trusts Label(): a MapFn's closure is represented by its
// Desc, which the parser derives deterministically from the query text.
// Plans assembled programmatically with custom ValueTransforms must give
// distinct transforms distinct labels or keep sharing disabled.
func Signature(n Node) string {
	memo := map[Node]string{}
	var sig func(Node) string
	sig = func(n Node) string {
		if s, ok := memo[n]; ok {
			return s
		}
		kids := n.Children()
		var s string
		if len(kids) == 0 {
			s = n.Label()
		} else {
			parts := make([]string, len(kids))
			for i, c := range kids {
				parts[i] = sig(c)
			}
			if co, ok := n.(*ComposeOp); ok && Commutative(co.Gamma) {
				sort.Strings(parts)
			}
			s = n.Label() + "[" + strings.Join(parts, " | ") + "]"
		}
		memo[n] = s
		return s
	}
	return sig(n)
}

// Commutative reports whether a composition operator is insensitive to
// operand order, bit for bit.
func Commutative(g valueset.Gamma) bool {
	switch g {
	case valueset.Add, valueset.Mul, valueset.Sup, valueset.Inf:
		return true
	}
	return false
}

// ShortSig renders an 8-hex-digit digest of a plan's signature for display
// (EXPLAIN annotations, /stats, logs).
func ShortSig(n Node) string { return ShortSigOf(Signature(n)) }

// ShortSigOf digests an already-computed signature string.
func ShortSigOf(sig string) string {
	h := fnv.New32a()
	h.Write([]byte(sig))
	return fmt.Sprintf("%08x", h.Sum32())
}

// Shareable reports whether one plan node may run on a shared trunk.
// Everything deterministic and stateless-per-subscriber is shareable;
// deliberately excluded are the frame-buffered stretch (its fit state is
// product semantics: which frames a subscriber has seen must not depend
// on co-mounted products joining or leaving) and the aggregates (large
// window/series state, usually query-terminal anyway). Unknown node types
// are conservatively private. The exclusion is between distinct plans
// only: queries whose whole plans have one Signature (and render with one
// colormap and range) share the entire product, stretch included, as
// handles on one pipeline in the DSMS.
func Shareable(n Node) bool {
	switch n.(type) {
	case *Source, *RestrictS, *RestrictT, *RestrictV, *MapFn, *Fused,
		*Zoom, *Reproject, *Rotate, *Filter, *ComposeOp:
		return true
	}
	return false
}

// ShareFrontier returns the maximal fully-shareable subtrees of a plan, in
// the deterministic order a pre-order walk discovers them. Every Source
// lies inside some frontier subtree (sources are shareable leaves), so a
// query built on its frontier mounts needs no private source subscriptions.
// Pointer-shared subtrees are reported once.
func ShareFrontier(n Node) []Node {
	all := map[Node]bool{}
	var mark func(Node) bool
	mark = func(n Node) bool {
		if v, ok := all[n]; ok {
			return v
		}
		ok := Shareable(n)
		for _, c := range n.Children() {
			if !mark(c) {
				ok = false
			}
		}
		all[n] = ok
		return ok
	}
	mark(n)

	var out []Node
	seen := map[Node]bool{}
	var walk func(Node)
	walk = func(n Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if all[n] {
			out = append(out, n)
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}
