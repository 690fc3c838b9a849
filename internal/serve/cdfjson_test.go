package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// TestAppendJSONFloatMatchesMarshal pins the float formatter to
// encoding/json at the boundaries it special-cases: zero and negative
// zero, integers around the fast path's limit, the 1e-6 and 1e21
// notation switches, and exponents that need the e-07 → e-7 trim.
func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 400, 1.0 / 3, 2.0 / 3,
		1e-6, math.Nextafter(1e-6, 0), 9.99e-7, 5e-7, 1e-7, 1.5e-9, 1e-300, 5e-324,
		1e15 - 1, 1e15, 1e15 + 1, 1 << 53, 1e20, 1e21, math.Nextafter(1e21, 0), 1.5e300,
		123.456, -123.456, 0.1 + 0.2, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), rng.Float64(), float64(rng.Intn(1<<20)), rng.Float64()*1e-5)
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %s, encoding/json %s", v, got, want)
		}
	}
}

// TestAppendCDFBodyMatchesMarshal holds the /cdf body encoder to
// json.Marshal over random curves: long flat runs,
// P = 0 and P = 1, sample counts large enough to push P below 1e-6,
// bodies with and without window bounds, no continents at all, and
// strings that need escaping.
func TestAppendCDFBodyMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randCurve := func() []stats.CDFPoint {
		n := uint64(1 + rng.Intn(5))
		switch rng.Intn(3) {
		case 1:
			n = uint64(1e6 + rng.Intn(1e7)) // single samples read as P < 1e-6
		case 2:
			n = uint64(rng.Int63n(1 << 40))
		}
		pts := make([]stats.CDFPoint, 400)
		var cum uint64
		for k := range pts {
			if rng.Intn(4) == 0 && cum < n { // mostly flat, sometimes a step
				step := uint64(1)
				if rng.Intn(2) == 0 {
					step = uint64(rng.Int63n(int64(n-cum))) + 1
				}
				cum += step
			}
			if k == len(pts)-1 && rng.Intn(2) == 0 {
				cum = n
			}
			pts[k] = stats.CDFPoint{X: float64(k + 1), P: float64(cum) / float64(n)}
		}
		return pts
	}
	bodies := []cdfBody{
		{Snapshot: "abc123"},
		{Snapshot: "abc123", Continents: []cdfDTO{}},
		{Snapshot: "x", Since: "2019-09-01T00:00:00Z", Continents: []cdfDTO{{Continent: "Europe", Code: "EU"}}},
		{Snapshot: "<&>\"\\\n\u00e9\u2028", Until: "2019-09-03T00:00:00Z", Continents: []cdfDTO{
			{Continent: "North <America>", Code: "N&A", Samples: 1, Curve: []stats.CDFPoint{{X: 1, P: 0}, {X: 2, P: 1}, {X: 3, P: 1}}},
		}},
	}
	names := [][2]string{{"Africa", "AF"}, {"Asia", "AS"}, {"Europe", "EU"}, {"North America", "NA"}, {"Oceania", "OC"}, {"South America", "SA"}}
	for i := 0; i < 200; i++ {
		b := cdfBody{Snapshot: "0123456789abcdef"}
		if rng.Intn(2) == 0 {
			b.Since = "2019-09-01T12:00:00Z"
		}
		if rng.Intn(2) == 0 {
			b.Until = "2019-09-02T06:00:00Z"
		}
		for _, nm := range names {
			if rng.Intn(3) == 0 {
				continue
			}
			b.Continents = append(b.Continents, cdfDTO{
				Continent: nm[0], Code: nm[1], Samples: rng.Intn(1 << 30), Curve: randCurve(),
			})
		}
		bodies = append(bodies, b)
	}
	for i, b := range bodies {
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendCDFBody(nil, &b); !bytes.Equal(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			t.Fatalf("body %d diverges from encoding/json at byte %d:\ngot  ...%.80s\nwant ...%.80s", i, n, got[n:], want[n:])
		}
	}
}
