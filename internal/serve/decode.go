package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// The classify body codec. A body is read whole, then scanned once in the
// canonical shape every client here sends — what json.Marshal writes for a
// ClassifyRequest: exact lowercase field names, each at most once, plain
// ASCII strings without escapes, numbers and arrays but no null. Every
// number token is checked against the JSON number grammar and converted
// with the strconv call encoding/json makes for its field, so the scan
// yields the request encoding/json yields, bit for bit. Anything outside
// that subset — case-folded or duplicate keys, escapes, null, numbers
// strconv rejects, malformed JSON — falls back to encoding/json, which stays
// the reference and words every error. Either way a body is one JSON value
// followed only by whitespace.

// maxBody caps a classify body; a larger one is refused while it is read.
const maxBody = 16 << 20

// readBody reads a classify body whole, up to maxBody bytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
}

// decodeClassify decodes a classify body read whole by readBody.
func decodeClassify(body []byte) (ClassifyRequest, error) {
	var req ClassifyRequest
	if scanClassify(body, &req, true) {
		return req, nil
	}
	return decodeClassifyJSON(body)
}

// decodeClassifyJSON is the encoding/json reference decode of a classify
// body: a strict Decoder (unknown fields are errors) over a body that is
// one JSON value. A body that is not — malformed, truncated, empty, or
// followed by data — gets json.Unmarshal's syntax error, which is how the
// router words it.
func decodeClassifyJSON(body []byte) (ClassifyRequest, error) {
	var req ClassifyRequest
	if !json.Valid(body) {
		return req, json.Unmarshal(body, new(json.RawMessage))
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// shardKeyOf decodes a classify body's (model, seed) shard key and checks
// that the whole body is valid JSON, as json.Unmarshal into shardFields does.
// The scan skips converting the pixel numbers; bodies outside the canonical
// shape fall back to that Unmarshal, the reference.
func shardKeyOf(body []byte) (shardFields, error) {
	var req ClassifyRequest
	if scanClassify(body, &req, false) {
		return shardFields{Model: req.Model, Seed: req.Seed}, nil
	}
	var key shardFields
	err := json.Unmarshal(body, &key)
	return key, err
}

// scanClassify fills req from a canonical-shape body in one pass and reports
// whether the body was in that shape; on false, req holds a partial result
// to be discarded. With full false only model and seed are converted — the
// router's shard key — and the other values are checked against the JSON
// grammar alone.
func scanClassify(body []byte, req *ClassifyRequest, full bool) bool {
	s := scanner{b: body}
	if !s.eat('{') {
		return false
	}
	if !s.eat('}') {
		var seen uint8
		for {
			key, ok := s.str()
			if !ok || !s.eat(':') {
				return false
			}
			var bit uint8
			switch string(key) {
			case "model":
				bit, ok = 1<<0, s.string(&req.Model)
			case "seed":
				bit, ok = 1<<1, s.uint(&req.Seed)
			case "spf":
				bit, ok = 1<<2, s.int(&req.SPF, full)
			case "copies":
				bit, ok = 1<<3, s.int(&req.Copies, full)
			case "conf":
				bit, ok = 1<<4, s.conf(&req.Conf, full)
			case "input":
				bit = 1 << 5
				req.Input, ok = s.floats(full)
			case "inputs":
				bit = 1 << 6
				req.Inputs, ok = s.batch(full)
			default:
				return false
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			if s.eat('}') {
				break
			}
			if !s.eat(',') {
				return false
			}
		}
	}
	s.ws()
	return s.i == len(s.b)
}

// scanner is a cursor over a classify body.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII without escapes and returns its
// contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// num scans one number token of the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) num() ([]byte, bool) {
	s.ws()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	tok := b[s.i:i]
	s.i = i
	return tok, true
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// The value scanners below convert with the strconv call encoding/json
// makes for the destination's type; with conv false they check the grammar
// alone.

// string scans a plain string into dst.
func (s *scanner) string(dst *string) bool {
	v, ok := s.str()
	*dst = string(v)
	return ok
}

// uint scans an unsigned integer into dst.
func (s *scanner) uint(dst *uint64) bool {
	tok, ok := s.num()
	if !ok {
		return false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	*dst = v
	return err == nil
}

// int scans an integer into dst when conv is set.
func (s *scanner) int(dst *int, conv bool) bool {
	tok, ok := s.num()
	if !ok || !conv {
		return ok
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}

// conf scans a number into a new *dst when conv is set.
func (s *scanner) conf(dst **float64, conv bool) bool {
	tok, ok := s.num()
	if !ok || !conv {
		return ok
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	*dst = &v
	return err == nil
}

// floats scans an array of numbers, converted when conv is set. An empty
// array converts to an empty, non-nil slice, as encoding/json decodes it.
func (s *scanner) floats(conv bool) ([]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	var out []float64
	if conv {
		// Numbers hold no ',' or ']', so the commas before the first ']'
		// size the slice; a malformed array falls back whatever its size.
		n := 1
		if end := bytes.IndexByte(s.b[s.i:], ']'); end >= 0 {
			n += bytes.Count(s.b[s.i:s.i+end], []byte{','})
		}
		out = make([]float64, 0, n)
	}
	if s.eat(']') {
		return out, true
	}
	for {
		tok, ok := s.num()
		if !ok {
			return nil, false
		}
		if conv {
			v, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return nil, false
			}
			out = append(out, v)
		}
		if s.eat(']') {
			return out, true
		}
		if !s.eat(',') {
			return nil, false
		}
	}
}

// batch scans an array of number arrays, as floats does each one.
func (s *scanner) batch(conv bool) ([][]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	var out [][]float64
	if conv {
		out = [][]float64{}
	}
	if s.eat(']') {
		return out, true
	}
	for {
		x, ok := s.floats(conv)
		if !ok {
			return nil, false
		}
		if conv {
			out = append(out, x)
		}
		if s.eat(']') {
			return out, true
		}
		if !s.eat(',') {
			return nil, false
		}
	}
}
