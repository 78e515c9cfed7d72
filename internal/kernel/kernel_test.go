package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kifmm/internal/geom"
)

func TestLaplaceBasics(t *testing.T) {
	k := Laplace{}
	if k.Name() != "laplace" || k.SrcDim() != 1 || k.TrgDim() != 1 {
		t.Fatalf("laplace metadata wrong")
	}
	out := []float64{0}
	k.Eval(geom.Point{X: 1}, geom.Point{}, []float64{1}, out)
	want := 1 / (4 * math.Pi)
	if math.Abs(out[0]-want) > 1e-15 {
		t.Fatalf("laplace at r=1: %v want %v", out[0], want)
	}
	// Singular pair contributes nothing.
	out[0] = 7
	k.Eval(geom.Point{X: 1}, geom.Point{X: 1}, []float64{1}, out)
	if out[0] != 7 {
		t.Fatalf("self pair modified output")
	}
}

func TestLaplaceHomogeneity(t *testing.T) {
	k := Laplace{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		x := geom.Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		y := geom.Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		a := 0.1 + rng.Float64()*3
		v1, v2 := []float64{0}, []float64{0}
		k.Eval(x, y, []float64{1}, v1)
		k.Eval(x.Scale(a), y.Scale(a), []float64{1}, v2)
		want := v1[0] * math.Pow(a, -k.HomogeneityDeg())
		if math.Abs(v2[0]-want) > 1e-12*math.Abs(want) {
			t.Fatalf("homogeneity violated: %v vs %v", v2[0], want)
		}
	}
}

func TestStokesBasics(t *testing.T) {
	k := Stokes{}
	if k.SrcDim() != 3 || k.TrgDim() != 3 {
		t.Fatalf("stokes dims wrong")
	}
	// Along x-axis at distance r with x-directed force:
	// u_x = (1/8π)(1/r + r²/r³) = 1/(4πr); u_y = u_z = 0.
	out := make([]float64, 3)
	k.Eval(geom.Point{X: 2}, geom.Point{}, []float64{1, 0, 0}, out)
	want := 1 / (8 * math.Pi) * (0.5 + 0.5)
	if math.Abs(out[0]-want) > 1e-15 || out[1] != 0 || out[2] != 0 {
		t.Fatalf("stokeslet axial flow wrong: %v", out)
	}
	// Transverse force: u_y = 1/(8πr), no r_i r_j contribution.
	out = make([]float64, 3)
	k.Eval(geom.Point{X: 2}, geom.Point{}, []float64{0, 1, 0}, out)
	if math.Abs(out[1]-1/(16*math.Pi)) > 1e-15 || out[0] != 0 {
		t.Fatalf("stokeslet transverse flow wrong: %v", out)
	}
}

func TestStokesSymmetryProperty(t *testing.T) {
	// The Oseen tensor is symmetric: K_ij(x,y) = K_ji(x,y), and symmetric
	// under swapping x and y.
	k := Stokes{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := geom.Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		y := geom.Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		if x.Dist(y) < 1e-3 {
			return true
		}
		m := Matrix(k, []geom.Point{x}, []geom.Point{y})
		mt := Matrix(k, []geom.Point{y}, []geom.Point{x})
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if math.Abs(m.At(i, j)-m.At(j, i)) > 1e-14 {
					return false
				}
				if math.Abs(m.At(i, j)-mt.At(i, j)) > 1e-14 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []Kernel{Laplace{}, Stokes{}} {
		trgs := randPts(rng, 5)
		srcs := randPts(rng, 4)
		den := make([]float64, 4*k.SrcDim())
		for i := range den {
			den[i] = rng.NormFloat64()
		}
		m := Matrix(k, trgs, srcs)
		viaMat := make([]float64, 5*k.TrgDim())
		m.MulVec(viaMat, den)
		direct := Direct(k, trgs, srcs, den)
		for i := range direct {
			if math.Abs(direct[i]-viaMat[i]) > 1e-12*(1+math.Abs(direct[i])) {
				t.Fatalf("%s: Matrix/Direct mismatch at %d: %v vs %v",
					k.Name(), i, viaMat[i], direct[i])
			}
		}
	}
}

func TestDirectSkipsSelfInteraction(t *testing.T) {
	pts := []geom.Point{{X: 0.3}, {X: 0.7}}
	out := Direct(Laplace{}, pts, pts, []float64{1, 1})
	want := 1 / (4 * math.Pi * 0.4)
	for i, v := range out {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("out[%d]=%v want %v", i, v, want)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("laplace") == nil || ByName("stokes") == nil {
		t.Fatalf("known kernels missing")
	}
	if ByName("helmholtz") != nil {
		t.Fatalf("unknown kernel should be nil")
	}
}

func TestFlopEstimatesPositive(t *testing.T) {
	for _, k := range []Kernel{Laplace{}, Stokes{}} {
		if k.FlopsPerInteraction() <= 0 {
			t.Fatalf("%s flop estimate must be positive", k.Name())
		}
	}
}

func randPts(rng *rand.Rand, n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Point{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	return out
}
