// codec.go is the wire form of the compact plan: the disk tier of the
// serving layer persists plans in this encoding, so a restarted server can
// warm-start from files instead of re-running the O(nm) construction.
//
// The format stores only the irreducible core — the canonical parent array
// and the canonical→original vertex permutation — because everything else
// in a Plan (subtree intervals, levels, child CSR, lip bits) is a pure
// function of those two arrays. That keeps the encoding at 8 bytes per
// vertex and, more importantly, lets Decode re-derive the redundant arrays
// itself instead of trusting them: a decoded Plan is structurally valid by
// construction or Decode returns an error. Decode never panics on
// malformed input, however adversarial — the FuzzPlanDecode harness
// enforces that — because store corruption must degrade to a cache miss,
// not a dead server.
package implicit

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// codecMagic opens every encoded plan; the trailing digit is the format
// version. Bump it when the layout changes — stale store entries then fail
// decoding and are rebuilt, which is the upgrade path.
var codecMagic = [4]byte{'M', 'G', 'i', '1'}

// codecHeaderLen is magic + uint32 n + uint32 height.
const codecHeaderLen = 12

// rootMark encodes the root's parent (-1) as a uint32.
const rootMark = ^uint32(0)

// ErrCodec wraps every decoding failure, so callers can classify "bytes do
// not decode to a plan" without matching message text.
var ErrCodec = errors.New("implicit: malformed plan encoding")

// EncodedLen returns the exact byte length AppendBinary produces for p.
func (p *Plan) EncodedLen() int { return codecHeaderLen + 8*p.topo.N }

// AppendBinary appends the plan's wire encoding to dst and returns the
// extended slice: the 12-byte header (magic, n, height), then the canonical
// parent array and the canonical→original permutation as little-endian
// uint32s. 8 bytes per vertex.
func (p *Plan) AppendBinary(dst []byte) []byte {
	dst = append(dst, codecMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.topo.N))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.topo.Height))
	for _, par := range p.topo.Parent {
		if par < 0 {
			dst = binary.LittleEndian.AppendUint32(dst, rootMark)
		} else {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(par))
		}
	}
	for _, v := range p.topo.VertexOf {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// Decode parses a plan encoded by AppendBinary and re-derives every
// redundant array, validating the full structural contract on the way:
// exactly preorder-consistent parents (parent precedes child, subtrees are
// contiguous label intervals), a bijective vertex permutation, and a header
// height that matches the tree. Any violation returns an error wrapping
// ErrCodec; no input can make Decode panic or allocate beyond a small
// multiple of len(data).
func Decode(data []byte) (*Plan, error) {
	if len(data) < codecHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrCodec, len(data), codecHeaderLen)
	}
	if [4]byte(data[:4]) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCodec, data[:4])
	}
	n64 := int64(binary.LittleEndian.Uint32(data[4:8]))
	height := int(binary.LittleEndian.Uint32(data[8:12]))
	// The length check comes before any n-sized allocation, so a corrupt
	// header cannot demand gigabytes for a kilobyte file.
	if n64 < 1 || int64(len(data)) != codecHeaderLen+8*n64 {
		return nil, fmt.Errorf("%w: n=%d does not match %d payload bytes", ErrCodec, n64, len(data)-codecHeaderLen)
	}
	n := int(n64)

	p := &Plan{topo: newTopo(n, height)}
	t := &p.topo

	// Parents: the root is label 0, and in DFS preorder every other vertex's
	// parent carries a strictly smaller label.
	body := data[codecHeaderLen:]
	for v := 0; v < n; v++ {
		raw := binary.LittleEndian.Uint32(body[4*v:])
		switch {
		case v == 0:
			if raw != rootMark {
				return nil, fmt.Errorf("%w: label 0 has parent %d, want root", ErrCodec, raw)
			}
			t.Parent[0] = -1
		case int64(raw) >= int64(v):
			return nil, fmt.Errorf("%w: label %d has parent %d, want < %d", ErrCodec, v, raw, v)
		default:
			t.Parent[v] = int32(raw)
		}
	}

	// Vertex permutation: canonical label -> original id, bijective.
	perm := body[4*n:]
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		raw := binary.LittleEndian.Uint32(perm[4*v:])
		if int64(raw) >= int64(n) || seen[raw] {
			return nil, fmt.Errorf("%w: vertexOf[%d]=%d is out of range or repeated", ErrCodec, v, raw)
		}
		seen[raw] = true
		t.VertexOf[v] = int32(raw)
		t.LabelOf[raw] = int32(v)
	}

	// Re-derive subtree intervals: a vertex's interval closes at the highest
	// label among its descendants. Processing labels in descending order
	// finalises every child before its parent folds it in.
	for v := range t.Hi {
		t.Hi[v] = int32(v)
	}
	for v := n - 1; v >= 1; v-- {
		par := t.Parent[v]
		if t.Hi[v] > t.Hi[par] {
			t.Hi[par] = t.Hi[v]
		}
	}

	// Child CSR (children of each vertex ascend because labels are handed
	// out in preorder), then the preorder-contiguity proof: the children of
	// v must tile [v+1, hi[v]] exactly, each starting where the previous
	// subtree ended. Parents that merely precede their children do not
	// guarantee this; a plan whose closed forms index by interval does.
	for v := 1; v < n; v++ {
		t.ChildStart[t.Parent[v]+1]++
	}
	for v := 0; v < n; v++ {
		t.ChildStart[v+1] += t.ChildStart[v]
	}
	t.Children = make([]int32, n-1)
	fill := make([]int32, n)
	copy(fill, t.ChildStart[:n])
	for v := 1; v < n; v++ {
		par := t.Parent[v]
		t.Children[fill[par]] = int32(v)
		fill[par]++
	}
	for v := 0; v < n; v++ {
		expect := int32(v) + 1
		for _, c := range t.Kids(int32(v)) {
			if c != expect {
				return nil, fmt.Errorf("%w: subtree of %d is not a contiguous interval (child %d, want %d)", ErrCodec, v, c, expect)
			}
			expect = t.Hi[c] + 1
		}
		if len(t.Kids(int32(v))) > 0 && expect != t.Hi[v]+1 {
			return nil, fmt.Errorf("%w: children of %d cover up to %d, interval closes at %d", ErrCodec, v, expect-1, t.Hi[v])
		}
	}

	// Levels and height; the header height is redundant and must agree.
	maxLevel := 0
	for v := 1; v < n; v++ {
		t.Level[v] = t.Level[t.Parent[v]] + 1
		if int(t.Level[v]) > maxLevel {
			maxLevel = int(t.Level[v])
		}
	}
	if height != maxLevel {
		return nil, fmt.Errorf("%w: header height %d, tree height %d", ErrCodec, height, maxLevel)
	}

	// Lip bits: v is its parent's first child exactly when v == parent+1 in
	// canonical space.
	for v := 1; v < n; v++ {
		if int32(v) == t.Parent[v]+1 {
			t.LipBits[v>>6] |= 1 << (v & 63)
		}
	}
	return p, nil
}

// ParentOriginal returns the parent of original vertex v in the plan's
// spanning tree, or -1 at the root. The disk tier uses it to check every
// tree edge of a decoded plan against the accompanying topology without
// materialising the tree.
func (p *Plan) ParentOriginal(v int) int {
	par := p.topo.Parent[p.topo.LabelOf[v]]
	if par < 0 {
		return -1
	}
	return int(p.topo.VertexOf[par])
}
