// Package geom provides 3-D point utilities and the particle distributions
// used in the paper's experiments: uniform random sampling of the unit cube
// and a highly nonuniform distribution on the surface of a 1:1:4 ellipsoid
// (uniform angular spacing in spherical coordinates), which drives the
// adaptive octree to 20+ levels of refinement.
package geom

import (
	"math"
	"math/rand"
)

// Point is a point in R³.
type Point struct {
	X, Y, Z float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns s·p.
func (p Point) Scale(s float64) Point { return Point{s * p.X, s * p.Y, s * p.Z} }

// Dot returns the inner product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y + p.Z*q.Z }

// Norm returns the Euclidean norm of p.
func (p Point) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Box is an axis-aligned box [Lo, Hi).
type Box struct {
	Lo, Hi Point
}

// UnitCube returns the unit cube [0,1)³.
func UnitCube() Box { return Box{Lo: Point{}, Hi: Point{1, 1, 1}} }

// Contains reports whether p lies in the half-open box.
func (b Box) Contains(p Point) bool {
	return p.X >= b.Lo.X && p.X < b.Hi.X &&
		p.Y >= b.Lo.Y && p.Y < b.Hi.Y &&
		p.Z >= b.Lo.Z && p.Z < b.Hi.Z
}

// Distribution identifies one of the paper's particle distributions.
type Distribution int

const (
	// Uniform samples the unit cube with uniform probability density.
	Uniform Distribution = iota
	// Ellipsoid places points on the surface of a 1:1:4 ellipsoid with
	// uniform angular spacing in spherical coordinates — the paper's
	// "highly nonuniform" distribution (points cluster at the poles).
	Ellipsoid
)

// String returns the distribution's name.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Ellipsoid:
		return "ellipsoid"
	}
	return "unknown"
}

// Generate produces n points of the given distribution inside the unit cube
// using the deterministic seed.
func Generate(d Distribution, n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	switch d {
	case Uniform:
		for i := range pts {
			pts[i] = Point{rng.Float64(), rng.Float64(), rng.Float64()}
		}
	case Ellipsoid:
		// Semi-axes 1:1:4 scaled to fit strictly inside the unit cube,
		// centered at (0.5, 0.5, 0.5). Uniform angular spacing (NOT uniform
		// area) concentrates points near the poles, producing the paper's
		// deep adaptive trees.
		const a, b, c = 0.115, 0.115, 0.46
		for i := range pts {
			theta := rng.Float64() * math.Pi   // polar angle
			phi := rng.Float64() * 2 * math.Pi // azimuthal angle
			st, ct := math.Sincos(theta)
			sp, cp := math.Sincos(phi)
			pts[i] = Point{
				X: 0.5 + a*st*cp,
				Y: 0.5 + b*st*sp,
				Z: 0.5 + c*ct,
			}
		}
	default:
		panic("geom: unknown distribution")
	}
	return pts
}

// GenerateChunk produces rank r's share of a global n-point distribution
// split across p equal chunks, matching the paper's assumption that input
// points arrive equidistributed across processes. Deterministic: the union
// over ranks equals Generate(d, n, seed) exactly.
func GenerateChunk(d Distribution, n int, seed int64, r, p int) []Point {
	if r < 0 || r >= p {
		panic("geom: rank out of range")
	}
	all := Generate(d, n, seed)
	lo := r * n / p
	hi := (r + 1) * n / p
	out := make([]Point, hi-lo)
	copy(out, all[lo:hi])
	return out
}
