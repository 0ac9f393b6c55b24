package ipotree

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"prefsky/internal/data"
	"prefsky/internal/order"
)

// Persistence: a built tree can be saved and reloaded, so the expensive
// preprocessing (skyline + MDC + node materialization) runs once per dataset
// and many query processes share it. The encoding is gob over an exported
// mirror of the structure — φ children do not re-encode their (aliased)
// disqualifying sets — wrapped in a checksummed frame:
//
//	8-byte magic "IPOIDX02"
//	u32 payload length (little-endian)
//	u32 CRC32C of the payload
//	gob payload
//
// Gob detects truncation but not bit flips — a flipped byte inside a slice
// of positions decodes fine and silently corrupts query results — so the
// frame's CRC rejects any damaged file up front, and Load re-validates every
// structural invariant the query path relies on (node shape, set ordering,
// value ranges) so that even a forged checksum cannot produce a tree that
// panics or answers incorrectly.

type nodeDTO struct {
	A        []int32
	Children map[int32]*nodeDTO
	Phi      *nodeDTO
}

type treeDTO struct {
	Version  int
	Cards    []int
	Template [][]order.Value
	Sky      []data.PointID
	NomOf    [][]order.Value
	TopK     int
	Bitmap   bool
	Nodes    *nodeDTO
	Stats    Stats
}

const persistVersion = 2

var persistMagic = [8]byte{'I', 'P', 'O', 'I', 'D', 'X', '0', '2'}

// persistCRC is the Castagnoli (CRC32C) table, matching the WAL framing of
// internal/durable.
var persistCRC = crc32.MakeTable(crc32.Castagnoli)

// Sanity caps on decoded dimensions: a corrupt header claiming 10^9
// dimensions or a cardinality in the billions should fail as corruption,
// not attempt the allocation.
const (
	maxPersistDims = 64
	maxPersistCard = 1 << 20
)

func encodeNode(n *node, isPhi bool) *nodeDTO {
	if n == nil {
		return nil
	}
	dto := &nodeDTO{Phi: encodeNode(n.phi, true)}
	if !isPhi {
		dto.A = n.a
	}
	for v, c := range n.children {
		if c == nil {
			continue
		}
		if dto.Children == nil {
			dto.Children = make(map[int32]*nodeDTO)
		}
		dto.Children[int32(v)] = encodeNode(c, false)
	}
	return dto
}

// validateSet checks a disqualifying set: strictly ascending skyline
// positions in [0, nSky). The set algebra (difference, intersect, union)
// silently returns wrong results on unsorted input, and the bitmap build
// indexes bitsets by position, so either violation must fail the load.
func validateSet(a []int32, nSky int) error {
	for i, p := range a {
		if int(p) < 0 || int(p) >= nSky {
			return fmt.Errorf("ipotree: corrupt index: set position %d outside %d skyline points", p, nSky)
		}
		if i > 0 && a[i-1] >= p {
			return fmt.Errorf("ipotree: corrupt index: set positions not ascending (%d before %d)", a[i-1], p)
		}
	}
	return nil
}

// decodeNode rebuilds one node, enforcing the builder's shape invariants:
// every node above leaf depth has a full-cardinality children slice and a φ
// child (the query path indexes children[v] and recurses into phi
// unconditionally), leaves have neither, and every disqualifying set is
// ascending and in range.
func decodeNode(dto *nodeDTO, card []int, depth, nSky int, parentA []int32) (*node, error) {
	if dto == nil {
		return nil, fmt.Errorf("ipotree: corrupt index: missing node at depth %d", depth)
	}
	n := &node{a: dto.A}
	if parentA != nil {
		n.a = parentA // φ child shares its parent's set
		if dto.A != nil {
			return nil, fmt.Errorf("ipotree: corrupt index: φ node at depth %d carries its own set", depth)
		}
	} else if err := validateSet(n.a, nSky); err != nil {
		return nil, err
	}
	if depth == len(card) {
		if len(dto.Children) > 0 || dto.Phi != nil {
			return nil, fmt.Errorf("ipotree: corrupt index: children below leaf depth")
		}
		return n, nil
	}
	n.children = make([]*node, card[depth])
	for v, c := range dto.Children {
		if int(v) < 0 || int(v) >= card[depth] {
			return nil, fmt.Errorf("ipotree: corrupt index: child value %d outside cardinality %d", v, card[depth])
		}
		child, err := decodeNode(c, card, depth+1, nSky, nil)
		if err != nil {
			return nil, err
		}
		n.children[v] = child
	}
	if dto.Phi == nil {
		return nil, fmt.Errorf("ipotree: corrupt index: node at depth %d lacks a φ child", depth)
	}
	phi, err := decodeNode(dto.Phi, card, depth+1, nSky, n.a)
	if err != nil {
		return nil, err
	}
	n.phi = phi
	return n, nil
}

// Save serializes the tree.
func (t *Tree) Save(w io.Writer) error {
	dto := treeDTO{
		Version: persistVersion,
		Cards:   t.cards,
		Sky:     t.sky,
		NomOf:   t.nomOf,
		TopK:    t.opts.TopK,
		Bitmap:  t.opts.UseBitmap,
		Nodes:   encodeNode(t.root, false),
		Stats:   t.stats,
	}
	dto.Template = make([][]order.Value, t.template.NomDims())
	for d := 0; d < t.template.NomDims(); d++ {
		dto.Template[d] = t.template.Dim(d).Entries()
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&dto); err != nil {
		return fmt.Errorf("ipotree: encoding index: %w", err)
	}
	var header [16]byte
	copy(header[:], persistMagic[:])
	binary.LittleEndian.PutUint32(header[8:], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(header[12:], crc32.Checksum(payload.Bytes(), persistCRC))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("ipotree: writing index: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("ipotree: writing index: %w", err)
	}
	return nil
}

// Load reconstructs a tree saved with Save. The loaded tree answers queries
// identically to the original. Damaged input — truncated, bit-flipped, or
// structurally inconsistent — returns an error; it never panics and never
// yields a tree whose answers differ from some original's.
func Load(r io.Reader) (*Tree, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ipotree: reading index: %w", err)
	}
	if len(raw) < 16 || !bytes.Equal(raw[:8], persistMagic[:]) {
		return nil, fmt.Errorf("ipotree: not an index file (bad magic)")
	}
	n := int64(binary.LittleEndian.Uint32(raw[8:]))
	if 16+n != int64(len(raw)) {
		return nil, fmt.Errorf("ipotree: corrupt index: payload length %d does not match %d-byte file", n, len(raw))
	}
	payload := raw[16:]
	if crc32.Checksum(payload, persistCRC) != binary.LittleEndian.Uint32(raw[12:]) {
		return nil, fmt.Errorf("ipotree: corrupt index: checksum mismatch")
	}
	var dto treeDTO
	dec := gob.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(&dto); err != nil {
		return nil, fmt.Errorf("ipotree: decoding index: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("ipotree: index version %d unsupported (want %d)", dto.Version, persistVersion)
	}
	if len(dto.Cards) > maxPersistDims {
		return nil, fmt.Errorf("ipotree: corrupt index: %d dimensions", len(dto.Cards))
	}
	if len(dto.Template) != len(dto.Cards) {
		return nil, fmt.Errorf("ipotree: corrupt index: %d template dimensions for %d cardinalities",
			len(dto.Template), len(dto.Cards))
	}
	if len(dto.NomOf) != len(dto.Cards) {
		return nil, fmt.Errorf("ipotree: corrupt index: %d value columns for %d dimensions",
			len(dto.NomOf), len(dto.Cards))
	}
	if dto.TopK < 0 {
		return nil, fmt.Errorf("ipotree: corrupt index: negative top-K %d", dto.TopK)
	}
	if !slices.IsSorted(dto.Sky) {
		return nil, fmt.Errorf("ipotree: corrupt index: skyline ids not ascending")
	}
	dims := make([]*order.Implicit, len(dto.Cards))
	for d, card := range dto.Cards {
		if card <= 0 || card > maxPersistCard {
			return nil, fmt.Errorf("ipotree: corrupt index: cardinality %d", card)
		}
		if len(dto.NomOf[d]) != len(dto.Sky) {
			return nil, fmt.Errorf("ipotree: corrupt index: value column %d has %d entries for %d skyline points",
				d, len(dto.NomOf[d]), len(dto.Sky))
		}
		for _, v := range dto.NomOf[d] {
			// buildBitmaps and filterByPrefix index by value; out-of-domain
			// entries would panic or silently misfilter.
			if int(v) < 0 || int(v) >= card {
				return nil, fmt.Errorf("ipotree: corrupt index: value %d outside cardinality %d in column %d", v, card, d)
			}
		}
		ip, err := order.NewImplicit(card, dto.Template[d]...)
		if err != nil {
			return nil, fmt.Errorf("ipotree: corrupt index: %w", err)
		}
		dims[d] = ip
	}
	tmpl, err := order.NewPreference(dims...)
	if err != nil {
		return nil, err
	}
	root, err := decodeNode(dto.Nodes, dto.Cards, 0, len(dto.Sky), nil)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		template: tmpl,
		cards:    dto.Cards,
		sky:      dto.Sky,
		nomOf:    dto.NomOf,
		root:     root,
		opts:     Options{TopK: dto.TopK, UseBitmap: dto.Bitmap},
		stats:    dto.Stats,
	}
	if t.opts.UseBitmap {
		t.buildBitmaps()
	}
	return t, nil
}
