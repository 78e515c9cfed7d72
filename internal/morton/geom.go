package morton

// FromPoint returns the level-l octant containing the point (x, y, z) in the
// unit cube. Coordinates are clamped to [0, 1).
func FromPoint(x, y, z float64, l int) Key {
	if l < 0 || l > MaxDepth {
		panic("morton: invalid level")
	}
	k := Key{X: toUnits(x), Y: toUnits(y), Z: toUnits(z), L: MaxDepth}
	return k.AncestorAt(l)
}

// toUnits clamps a unit-cube coordinate to [0, 1) and scales it to integer
// lattice units at MaxDepth. The clamp comes before the scaling: converting
// a scaled coordinate of 2³³ or more (or +Inf) to an integer is
// implementation-defined in Go, and on amd64 lands it at 0, the wrong face.
// NaN maps to 0.
func toUnits(v float64) uint32 {
	switch {
	case !(v > 0):
		return 0
	case v >= 1:
		return MaxCoord - 1
	}
	return uint32(v * MaxCoord)
}

// Side returns the octant's side length in unit-cube coordinates.
func (k Key) Side() float64 { return float64(k.SideUnits()) / MaxCoord }

// Center returns the octant's center in unit-cube coordinates.
func (k Key) Center() (x, y, z float64) {
	h := float64(k.SideUnits()) / (2 * MaxCoord)
	return float64(k.X)/MaxCoord + h, float64(k.Y)/MaxCoord + h, float64(k.Z)/MaxCoord + h
}

// ContainsPoint reports whether the point lies in the octant's half-open
// region [lo, hi).
func (k Key) ContainsPoint(x, y, z float64) bool {
	return FromPoint(x, y, z, k.Level()) == k
}

// Adjacent reports whether two octants share a face, edge, or vertex: their
// closed boxes intersect while their open interiors are disjoint. Nested or
// identical octants are not adjacent under this definition.
func (k Key) Adjacent(b Key) bool {
	ks, bs := k.SideUnits(), b.SideUnits()
	cx, ox := spans(k.X, ks, b.X, bs)
	cy, oy := spans(k.Y, ks, b.Y, bs)
	cz, oz := spans(k.Z, ks, b.Z, bs)
	return cx && cy && cz && !(ox && oy && oz)
}

// spans reports whether the intervals [a, a+as] and [b, b+bs] of one axis
// meet as closed intervals and as open ones. Anchors are below MaxCoord and
// sides at most MaxCoord, so no end overflows uint32.
func spans(a, as, b, bs uint32) (closed, open bool) {
	ah, bh := a+as, b+bs
	return a <= bh && b <= ah, a < bh && b < ah
}

// NeighborsSameLevel returns the same-level octants sharing a face, edge or
// vertex with k (up to 26), clipped to the unit cube. These are the
// candidate colleagues C(k).
func (k Key) NeighborsSameLevel() []Key {
	s := int64(k.SideUnits())
	out := make([]Key, 0, 26)
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for dz := int64(-1); dz <= 1; dz++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				x := int64(k.X) + dx*s
				y := int64(k.Y) + dy*s
				z := int64(k.Z) + dz*s
				if x < 0 || y < 0 || z < 0 || x >= MaxCoord || y >= MaxCoord || z >= MaxCoord {
					continue
				}
				out = append(out, Key{X: uint32(x), Y: uint32(y), Z: uint32(z), L: k.L})
			}
		}
	}
	return out
}

// Code is the 90-bit interleaved Morton code of a finest-level anchor,
// packed hi:lo: the radix key octree.Build sorts points by. Codes order
// finest-level cells exactly as Compare orders keys; every other order over
// octants is Compare's.
type Code struct {
	Hi, Lo uint64
}

// spread10 maps 10 bits to 30 with the bits placed every 3 positions
// starting at bit 0.
var spread10 [1 << 10]uint64

func init() {
	for v := range spread10 {
		var r uint64
		for b := 0; b < 10; b++ {
			if v&(1<<b) != 0 {
				r |= 1 << (3 * b)
			}
		}
		spread10[v] = r
	}
}

// interleave30 interleaves the low 30 bits of x, y, z into a 90-bit code
// with x in the most significant slot of each triple: 10 bits of each
// coordinate at a time, bits [30c, 30c+30) of the code from chunk c.
func interleave30(x, y, z uint32) Code {
	var part [3]uint64
	for c := range part {
		s := 10 * c
		part[c] = spread10[z>>s&1023] | spread10[y>>s&1023]<<1 | spread10[x>>s&1023]<<2
	}
	return Code{Hi: part[2] >> 4, Lo: part[0] | part[1]<<30 | part[2]<<60}
}

// PointCode returns the code of the finest-level cell holding the point
// (x, y, z): CodeOf(FromPoint(x, y, z, MaxDepth)) without the key.
func PointCode(x, y, z float64) Code { return interleave30(toUnits(x), toUnits(y), toUnits(z)) }

// CodeOf returns the code of k's first finest-level descendant.
func CodeOf(k Key) Code { return interleave30(k.X, k.Y, k.Z) }

// CoveringRegion returns, in Morton order, the coarsest octants covering
// region i of a cut of the cube: the finest-level cells from starts[i] up
// to, not including, starts[i+1], or to the cube's last cell when i is the
// last region. starts[0] must be the cube's first cell and starts must not
// fall; the regions' coverings then tile the cube with no overlaps, and an
// empty region (starts[i] == starts[i+1]) gets no octant.
// Points2Octree refines each rank's covering, its coarse "blocks".
func CoveringRegion(starts []Key, i int) []Key {
	// side places a finest-level cell before (-1), in (0) or past (+1) the
	// region.
	side := func(f Key) int {
		switch {
		case Compare(f, starts[i]) < 0:
			return -1
		case i+1 < len(starts) && Compare(f, starts[i+1]) >= 0:
			return 1
		}
		return 0
	}
	var out []Key
	var visit func(c Key)
	visit = func(c Key) {
		first, last := side(c.FirstDescendant(MaxDepth)), side(c.LastDescendant(MaxDepth))
		switch {
		case last < 0 || first > 0: // outside the region
		case first == 0 && last == 0:
			out = append(out, c)
		default:
			for j := 0; j < 8; j++ {
				visit(c.Child(j))
			}
		}
	}
	visit(Root())
	return out
}
