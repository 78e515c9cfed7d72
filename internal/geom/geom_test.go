package geom

import (
	"math"
	"testing"
)

func TestPointAlgebra(t *testing.T) {
	p := Point{1, 2, 3}
	q := Point{4, 5, 6}
	if p.Add(q) != (Point{5, 7, 9}) {
		t.Fatalf("Add wrong")
	}
	if q.Sub(p) != (Point{3, 3, 3}) {
		t.Fatalf("Sub wrong")
	}
	if p.Scale(2) != (Point{2, 4, 6}) {
		t.Fatalf("Scale wrong")
	}
	if p.Dot(q) != 32 {
		t.Fatalf("Dot wrong")
	}
	if Norm := (Point{3, 4, 0}).Norm(); Norm != 5 {
		t.Fatalf("Norm wrong: %v", Norm)
	}
	if d := p.Dist(p); d != 0 {
		t.Fatalf("Dist self = %v", d)
	}
}

func TestUnitCubeContains(t *testing.T) {
	b := UnitCube()
	if !b.Contains(Point{0, 0, 0}) {
		t.Fatalf("lo corner should be inside (half-open)")
	}
	if b.Contains(Point{1, 0.5, 0.5}) {
		t.Fatalf("hi face should be excluded")
	}
	if b.Contains(Point{0.5, -0.001, 0.5}) {
		t.Fatalf("negative coordinate should be outside")
	}
}

func TestGenerateUniformInCube(t *testing.T) {
	pts := Generate(Uniform, 2000, 7)
	if len(pts) != 2000 {
		t.Fatalf("wrong count")
	}
	cube := UnitCube()
	var mean Point
	for _, p := range pts {
		if !cube.Contains(p) {
			t.Fatalf("uniform point outside cube: %v", p)
		}
		mean = mean.Add(p)
	}
	mean = mean.Scale(1.0 / 2000)
	for _, c := range []float64{mean.X, mean.Y, mean.Z} {
		if math.Abs(c-0.5) > 0.05 {
			t.Fatalf("uniform mean far from center: %v", mean)
		}
	}
}

func TestGenerateEllipsoidOnSurface(t *testing.T) {
	pts := Generate(Ellipsoid, 1000, 3)
	cube := UnitCube()
	const a, b, c = 0.115, 0.115, 0.46
	for _, p := range pts {
		if !cube.Contains(p) {
			t.Fatalf("ellipsoid point outside cube: %v", p)
		}
		// On the ellipsoid surface: (x/a)² + (y/b)² + (z/c)² == 1.
		q := p.Sub(Point{0.5, 0.5, 0.5})
		v := (q.X/a)*(q.X/a) + (q.Y/b)*(q.Y/b) + (q.Z/c)*(q.Z/c)
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("point off surface: residual %v", v-1)
		}
	}
}

func TestEllipsoidIsNonuniform(t *testing.T) {
	// Uniform-in-angle sampling concentrates points near the poles
	// (|z - 0.5| near c). Compare population of polar caps vs equator band.
	pts := Generate(Ellipsoid, 20000, 9)
	var polar, equator int
	for _, p := range pts {
		dz := math.Abs(p.Z - 0.5)
		if dz > 0.44 {
			polar++
		}
		if dz < 0.02 {
			equator++
		}
	}
	if polar <= equator {
		t.Fatalf("expected polar clustering: polar=%d equator=%d", polar, equator)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Uniform, 100, 5)
	b := Generate(Uniform, 100, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed should reproduce points")
		}
	}
	c := Generate(Uniform, 100, 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds should differ")
	}
}

func TestGenerateChunkPartitionsExactly(t *testing.T) {
	const n, p = 103, 4
	all := Generate(Ellipsoid, n, 11)
	var joined []Point
	for r := 0; r < p; r++ {
		joined = append(joined, GenerateChunk(Ellipsoid, n, 11, r, p)...)
	}
	if len(joined) != n {
		t.Fatalf("chunks don't cover: %d", len(joined))
	}
	for i := range all {
		if joined[i] != all[i] {
			t.Fatalf("chunk union differs at %d", i)
		}
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Ellipsoid.String() != "ellipsoid" {
		t.Fatalf("bad names")
	}
	if Distribution(99).String() != "unknown" {
		t.Fatalf("unknown name")
	}
}
