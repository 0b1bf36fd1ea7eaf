package imagealg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1.5, 1.6, 9.9, math.NaN()} {
		h.Add(v)
	}
	if h.N != 4 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	// Out-of-range values clamp to edge bins.
	h.Add(-5)
	h.Add(50)
	if h.Counts[0] != 2 || h.Counts[9] != 2 {
		t.Fatalf("clamping wrong: %v", h.Counts)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("zero bins must fail")
	}
	if _, err := NewHistogram(5, 5, 4); err == nil {
		t.Fatal("empty range must fail")
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h, _ := NewHistogram(0, 1, 64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.Add(rng.Float64() * rng.Float64()) // skewed
	}
	cdf := h.CDF()
	prev := 0.0
	for i, c := range cdf {
		if c < prev {
			t.Fatalf("CDF not monotone at bin %d", i)
		}
		prev = c
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-12 {
		t.Fatalf("CDF must end at 1, got %g", cdf[len(cdf)-1])
	}
	// Empty histogram CDF is all zeros.
	e, _ := NewHistogram(0, 1, 4)
	for _, c := range e.CDF() {
		if c != 0 {
			t.Fatal("empty CDF must be zero")
		}
	}
}

func TestMoments(t *testing.T) {
	m := NewMoments()
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9, math.NaN()} {
		m.Add(v)
	}
	if m.N != 8 {
		t.Fatalf("N = %d", m.N)
	}
	if m.Min != 2 || m.Max != 9 {
		t.Fatalf("min/max = %g/%g", m.Min, m.Max)
	}
	o := NewMoments()
	o.Add(-1)
	m.Merge(o)
	m.Merge(NewMoments())
	if m.N != 9 || m.Min != -1 || m.Max != 9 {
		t.Fatalf("merged N/min/max = %d/%g/%g", m.N, m.Min, m.Max)
	}
}

func TestPixelFuncs(t *testing.T) {
	if Scale(2, 1)(3) != 7 {
		t.Fatal("scale wrong")
	}
	c := Clamp(0, 10)
	if c(-5) != 0 || c(15) != 10 || c(5) != 5 || !math.IsNaN(c(math.NaN())) {
		t.Fatal("clamp wrong")
	}
	th := Threshold(5, 0, 1)
	if th(4.9) != 0 || th(5) != 1 {
		t.Fatal("threshold wrong")
	}
	g := Gamma(2, 0, 1)
	if math.Abs(g(0.25)-0.5) > 1e-12 {
		t.Fatalf("gamma(0.25) = %g", g(0.25))
	}
}

func TestFitLinearStretch(t *testing.T) {
	m := NewMoments()
	for _, v := range []float64{10, 20, 30} {
		m.Add(v)
	}
	f, err := FitLinearStretch(m, 0, 255)
	if err != nil {
		t.Fatal(err)
	}
	if f(10) != 0 || f(30) != 255 || math.Abs(f(20)-127.5) > 1e-9 {
		t.Fatalf("stretch endpoints wrong: %g %g %g", f(10), f(20), f(30))
	}
	// Values outside the fitted range clamp.
	if f(5) != 0 || f(35) != 255 {
		t.Fatal("stretch must clamp")
	}
	if !math.IsNaN(f(math.NaN())) {
		t.Fatal("NaN must pass through")
	}
	// Degenerate (constant) frame maps to midpoint.
	d := NewMoments()
	d.Add(7)
	fd, err := FitLinearStretch(d, 0, 255)
	if err != nil {
		t.Fatal(err)
	}
	if fd(7) != 127.5 {
		t.Fatalf("degenerate stretch = %g", fd(7))
	}
	if _, err := FitLinearStretch(m, 10, 10); err == nil {
		t.Fatal("empty output range must fail")
	}
}

func TestFitEqualizationFlattens(t *testing.T) {
	// Heavily skewed input; after equalization the output distribution
	// must be near-uniform on [0, 255].
	h, _ := NewHistogram(0, 1, 256)
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = math.Pow(rng.Float64(), 3) // skewed toward 0
		h.Add(vals[i])
	}
	f, err := FitEqualization(h, 0, 255)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]float64, len(vals))
	for i, v := range vals {
		outs[i] = f(v)
	}
	sort.Float64s(outs)
	// Quartiles of a uniform [0,255] sample are ≈ 64, 127, 191.
	q := func(p float64) float64 { return outs[int(p*float64(len(outs)-1))] }
	for _, c := range []struct{ p, want float64 }{{0.25, 255.0 / 4}, {0.5, 255.0 / 2}, {0.75, 3 * 255.0 / 4}} {
		if math.Abs(q(c.p)-c.want) > 8 {
			t.Fatalf("equalized q%.2f = %g, want ≈ %g", c.p, q(c.p), c.want)
		}
	}
	// Monotone non-decreasing transfer function.
	prev := math.Inf(-1)
	for v := 0.0; v <= 1.0; v += 0.001 {
		o := f(v)
		if o < prev-1e-9 {
			t.Fatalf("equalization not monotone at %g", v)
		}
		prev = o
	}
}

func TestFitGaussianStretch(t *testing.T) {
	h, _ := NewHistogram(0, 1, 256)
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = rng.Float64() // uniform input
		h.Add(vals[i])
	}
	f, err := FitGaussianStretch(h, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	for _, v := range vals {
		sum += f(v)
		sumSq += f(v) * f(v)
	}
	mean := sum / float64(len(vals))
	if math.Abs(mean-100) > 2 {
		t.Fatalf("gaussian-stretched mean = %g, want ≈ 100", mean)
	}
	if std := math.Sqrt(sumSq/float64(len(vals)) - mean*mean); math.Abs(std-20) > 3 {
		t.Fatalf("gaussian-stretched std = %g, want ≈ 20", std)
	}
	if _, err := FitGaussianStretch(h, 0, 0); err == nil {
		t.Fatal("zero std must fail")
	}
}

func TestProbit(t *testing.T) {
	// Known values of the standard normal inverse CDF.
	cases := []struct{ p, z float64 }{
		{0.5, 0}, {0.975, 1.959964}, {0.025, -1.959964}, {0.8413447, 1.0},
	}
	for _, c := range cases {
		if got := probit(c.p); math.Abs(got-c.z) > 1e-4 {
			t.Errorf("probit(%g) = %g, want %g", c.p, got, c.z)
		}
	}
	if !math.IsInf(probit(0), -1) || !math.IsInf(probit(1), 1) {
		t.Fatal("probit edges must be infinite")
	}
}

// Property: probit is the inverse of the normal CDF (via erf).
func TestProbitRoundTrip(t *testing.T) {
	normCDF := func(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 0.98) + 0.01 // p in [0.01, 0.99]
		z := probit(p)
		return math.Abs(normCDF(z)-p) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelValidation(t *testing.T) {
	if _, err := NewKernel(2, 3, make([]float64, 6)); err == nil {
		t.Fatal("even kernel width must fail")
	}
	if _, err := NewKernel(3, 3, make([]float64, 8)); err == nil {
		t.Fatal("weight count mismatch must fail")
	}
	if _, err := GaussianKernel(3, 0); err == nil {
		t.Fatal("zero sigma must fail")
	}
}

func TestBoxConvolutionMeanPreserving(t *testing.T) {
	k, err := Box(3)
	if err != nil {
		t.Fatal(err)
	}
	// A constant grid convolved with a normalized kernel stays constant.
	vals := make([]float64, 25)
	for i := range vals {
		vals[i] = 7
	}
	out, err := Convolve(vals, 5, 5, k, EdgeClamp)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.Abs(v-7) > 1e-12 {
			t.Fatalf("out[%d] = %g", i, v)
		}
	}
}

func TestConvolveEdgePolicies(t *testing.T) {
	k, _ := Box(3)
	vals := []float64{9, 9, 9, 9} // 2x2 grid
	clamp, err := Convolve(vals, 2, 2, k, EdgeClamp)
	if err != nil {
		t.Fatal(err)
	}
	if clamp[0] != 9 {
		t.Fatalf("clamp edge = %g", clamp[0])
	}
	zero, err := Convolve(vals, 2, 2, k, EdgeZero)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(zero[0]-4) > 1e-12 { // 4 of 9 cells are inside
		t.Fatalf("zero edge = %g", zero[0])
	}
	nan, err := Convolve(vals, 2, 2, k, EdgeNaN)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(nan[0]) {
		t.Fatal("NaN edge must produce NaN")
	}
}

func TestSobelGradient(t *testing.T) {
	// Vertical step edge: gradient magnitude peaks at the edge columns.
	w, h := 6, 5
	vals := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x >= 3 {
				vals[y*w+x] = 10
			}
		}
	}
	gx, err := Convolve(vals, w, h, SobelX(), EdgeClamp)
	if err != nil {
		t.Fatal(err)
	}
	gy, err := Convolve(vals, w, h, SobelY(), EdgeClamp)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, len(vals))
	for i := range g {
		g[i] = math.Hypot(gx[i], gy[i])
	}
	if g[2*w+2] <= g[2*w+0] || g[2*w+3] <= g[2*w+5] {
		t.Fatalf("gradient must peak at the step: %v", g[2*w:3*w])
	}
	// Flat interior has zero gradient.
	if g[2*w+0] != 0 {
		t.Fatalf("flat gradient = %g", g[2*w+0])
	}
}

func TestConvolveNaNPropagation(t *testing.T) {
	k, _ := Box(3)
	vals := make([]float64, 25)
	vals[12] = math.NaN() // center pixel
	out, err := Convolve(vals, 5, 5, k, EdgeClamp)
	if err != nil {
		t.Fatal(err)
	}
	// Every output whose 3x3 footprint touches (2,2) is NaN.
	for y := 1; y <= 3; y++ {
		for x := 1; x <= 3; x++ {
			if !math.IsNaN(out[y*5+x]) {
				t.Fatalf("out(%d,%d) must be NaN", x, y)
			}
		}
	}
	if math.IsNaN(out[0]) {
		t.Fatal("far corner must not be NaN")
	}
}

func TestConvolveShapeMismatch(t *testing.T) {
	k, _ := Box(3)
	if _, err := Convolve(make([]float64, 10), 5, 5, k, EdgeClamp); err == nil {
		t.Fatal("shape mismatch must fail")
	}
}
