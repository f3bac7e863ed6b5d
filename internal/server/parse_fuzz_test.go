package server

import (
	"fmt"
	"math"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
)

// The region-spec parsers read request parameters straight off the
// wire. Each target asserts the parser never panics, that what it
// accepts is in its documented domain, and that an accepted value
// re-formatted canonically parses back to itself.

func FuzzParseRegionSpec(f *testing.F) {
	for _, s := range []string{
		"0,0,0,1,1,1", " 3, 4 ,5,6,7,8", "+1,0,0,1,1,1", "1,2,3", "0,0,0,0,0,0",
		"-1,0,0,1,1,1", "9223372036854775807,0,0,1,1,1", "0,0,0,1,1,99999999999999999999", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		origin, dims, err := parseRegionSpec(spec)
		if err != nil {
			return
		}
		for a := 0; a < 3; a++ {
			if origin[a] < 0 || dims[a] <= 0 {
				t.Fatalf("%q accepted as %v@%v", spec, dims, origin)
			}
		}
		again := fmt.Sprintf("%d,%d,%d,%d,%d,%d", origin[0], origin[1], origin[2], dims[0], dims[1], dims[2])
		o2, d2, err := parseRegionSpec(again)
		if err != nil || o2 != origin || d2 != dims {
			t.Fatalf("%q -> %v@%v re-parses from %q as %v@%v, %v", spec, dims, origin, again, d2, o2, err)
		}
	})
}

func FuzzParseTriple(f *testing.F) {
	for _, s := range []string{"1,1,1", "24, 17 ,9", "+2,3,4", "0,1,1", "-1,2,3", "1,2", "1,2,3,4", "9223372036854775807,1,1", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := parseTriple(s)
		if err != nil {
			return
		}
		for a := 0; a < 3; a++ {
			if d[a] <= 0 {
				t.Fatalf("%q accepted as %v", s, d)
			}
		}
		again := fmt.Sprintf("%d,%d,%d", d[0], d[1], d[2])
		if d2, err := parseTriple(again); err != nil || d2 != d {
			t.Fatalf("%q -> %v re-parses from %q as %v, %v", s, d, again, d2, err)
		}
	})
}

func FuzzParseFill(f *testing.F) {
	for _, s := range []string{"", "nan", "NaN", "zero", "0", "-0", "1.5", "-2e10", "inf", "-Inf", "0x1p-2", "1e400", "bogus"} {
		f.Add(s)
	}
	fill := func(s string) (float64, error) {
		return parseFill(httptest.NewRequest("GET", "/?fill="+url.QueryEscape(s), nil))
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := fill(s)
		if err != nil {
			return
		}
		again := strconv.FormatFloat(v, 'g', -1, 64)
		v2, err := fill(again)
		same := math.Float64bits(v2) == math.Float64bits(v) || (math.IsNaN(v) && math.IsNaN(v2))
		if err != nil || !same {
			t.Fatalf("%q -> %v re-parses from %q as %v, %v", s, v, again, v2, err)
		}
	})
}
