package dtree

import (
	"cmp"
	"encoding/binary"
	"slices"
	"testing"

	"kifmm/internal/geom"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
)

// FuzzPoints2Octree builds the distributed tree of a small cloud decoded
// from the fuzz input, 6 bytes a point (a uint16 a coordinate over 65535, so
// 0 and 65535 put points on the cube's faces and repeats are coincident),
// split by index over 1 to 4 ranks, at any q from 1 to 16 and any maxDepth.
// The union of the leaves must be a complete linear octree in Compare order
// that holds every input point exactly once, each in its leaf, and at most
// q points in each leaf above maxDepth. The seeds are scaled-down copies of
// clouds that leave a rank empty: coincident points, points on two sites, a
// uniform cloud with a coincident clump, fewer points than ranks and no
// point at all. `make fuzz` runs it for 10 s.
func FuzzPoints2Octree(f *testing.F) {
	cloud := func(pts ...[3]uint16) []byte {
		var b []byte
		for _, p := range pts {
			for _, v := range p {
				b = binary.LittleEndian.AppendUint16(b, v)
			}
		}
		return b
	}
	repeat := func(n int, sites ...[3]uint16) []byte {
		var pts [][3]uint16
		for i := 0; i < n; i++ {
			pts = append(pts, sites[i%len(sites)])
		}
		return cloud(pts...)
	}
	a, b := [3]uint16{19660, 39321, 13107}, [3]uint16{52428, 6553, 32767}
	f.Add(repeat(20, a), uint8(1), uint8(3), uint8(12))
	f.Add(repeat(20, a, b), uint8(3), uint8(3), uint8(12))
	uniform := make([]byte, 6*30)
	for i := range uniform {
		uniform[i] = byte(i * 151 % 251)
	}
	f.Add(append(uniform, repeat(8, a)...), uint8(3), uint8(3), uint8(12))
	f.Add(append(uniform, cloud([3]uint16{0, 0, 0}, [3]uint16{65535, 65535, 65535}, [3]uint16{0, 65535, 32767})...), uint8(2), uint8(1), uint8(30))
	f.Add(cloud(a, b), uint8(3), uint8(0), uint8(12))
	f.Add([]byte{}, uint8(2), uint8(3), uint8(12))

	f.Fuzz(func(t *testing.T, data []byte, pb, qb, depth uint8) {
		p, q, maxDepth := 1+int(pb%4), 1+int(qb%16), int(depth)%(morton.MaxDepth+1)
		pts := make([]geom.Point, min(len(data)/6, 200))
		for i := range pts {
			c := func(j int) float64 { return float64(binary.LittleEndian.Uint16(data[6*i+2*j:])) / 65535 }
			pts[i] = geom.Point{X: c(0), Y: c(1), Z: c(2)}
		}
		leaves := make([][]Leaf, p)
		mpi.Run(p, func(c *mpi.Comm) {
			r := c.Rank()
			leaves[r] = Points2Octree(c, pts[r*len(pts)/p:(r+1)*len(pts)/p], nil, 0, q, maxDepth, nil)
		})
		var keys []morton.Key
		var got []geom.Point
		for _, ls := range leaves {
			for _, l := range ls {
				keys = append(keys, l.Key)
				if l.Key.Level() < maxDepth && len(l.Pts) > q {
					t.Fatalf("leaf %v above maxDepth %d holds %d > q = %d points", l.Key, maxDepth, len(l.Pts), q)
				}
				for _, pt := range l.Pts {
					if !l.Key.ContainsPoint(pt.X, pt.Y, pt.Z) {
						t.Fatalf("point %v escapes leaf %v", pt, l.Key)
					}
				}
				got = append(got, l.Pts...)
			}
		}
		if !keysAreSorted(keys) || !morton.IsComplete(keys) {
			t.Fatalf("%d ranks: the %d leaves are not a complete linear octree in Compare order", p, len(keys))
		}
		byXYZ := func(a, b geom.Point) int {
			return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.Z, b.Z))
		}
		want := slices.Clone(pts)
		slices.SortFunc(want, byXYZ)
		slices.SortFunc(got, byXYZ)
		if !slices.Equal(got, want) {
			t.Fatalf("%d ranks: the leaves hold %d points, not the %d input points once each", p, len(got), len(want))
		}
	})
}
