package serve

import (
	"encoding/json"
	"math"
	"strconv"
)

// appendCDFBody appends the JSON encoding of b to dst, byte-identical
// to json.Marshal(b) (the tests hold it to that oracle). A /cdf body is
// ~4,800 floats; writing it directly skips encoding/json's reflection
// walk.
func appendCDFBody(dst []byte, b *cdfBody) []byte {
	dst = append(dst, `{"snapshot":`...)
	dst = appendJSONString(dst, b.Snapshot)
	if b.Since != "" {
		dst = append(dst, `,"since":`...)
		dst = appendJSONString(dst, b.Since)
	}
	if b.Until != "" {
		dst = append(dst, `,"until":`...)
		dst = appendJSONString(dst, b.Until)
	}
	dst = append(dst, `,"continents":`...)
	if b.Continents == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range b.Continents {
		c := &b.Continents[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"continent":`...)
		dst = appendJSONString(dst, c.Continent)
		dst = append(dst, `,"code":`...)
		dst = appendJSONString(dst, c.Code)
		dst = append(dst, `,"samples":`...)
		dst = strconv.AppendInt(dst, int64(c.Samples), 10)
		dst = append(dst, `,"curve":`...)
		if c.Curve == nil {
			dst = append(dst, "null}"...)
			continue
		}
		dst = append(dst, '[')
		for k, pt := range c.Curve {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"x":`...)
			dst = appendJSONFloat(dst, pt.X)
			dst = append(dst, `,"p":`...)
			dst = appendJSONFloat(dst, pt.P)
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, "]}"...)
}

// appendJSONFloat formats f exactly as encoding/json does for a
// float64: shortest round-trip digits, plain notation except below
// 1e-6 and at or above 1e21, and a two-digit negative exponent trimmed
// ("e-07" becomes "e-7"). Callers never pass NaN or infinities, which
// encoding/json rejects.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs < 1e15 && f == math.Trunc(f) && f != 0 {
		// Integral values print as their integer digits; below 2^53
		// that is exactly what the shortest 'f' formatting produces.
		return strconv.AppendInt(dst, int64(f), 10)
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString appends s as a JSON string. Printable ASCII that
// encoding/json leaves alone — every continent name, code, snapshot
// fingerprint and RFC 3339 bound — is quoted as-is; anything else goes
// through json.Marshal for its escaping rules.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
