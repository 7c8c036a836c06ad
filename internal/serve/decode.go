package serve

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The client reads the bodies that carry a compile's answer (a
// CompileResponse, alone or in a SessionResponse) with answerReader, in one
// pass: each string is unescaped, where it has to be, into pooled scratch and
// copied out once at its length. encoding/json checks the whole body before
// it decodes it and copies every escaped string twice, and the generated code
// these bodies carry is mostly escaped text. The reader gives the answers
// json.Unmarshal gives on every input: members are matched to fields by the
// same case folding, unknown ones are skipped, the last of a repeated key
// wins (a repeated array or object decodes over the first one's values),
// null leaves a string, number or bool as it was and sets a slice to nil,
// invalid UTF-8 becomes U+FFFD, and a body json.Unmarshal refuses — bad
// syntax, a value of the wrong type, a number an int cannot hold, trailing
// data, nesting deeper than 10,000 — is refused too, with an error of its
// own wording. FuzzDecodeCompileResponse holds the two to that.

// maxDepth is encoding/json's nesting limit: an object or array opened at a
// depth beyond it is an error.
const maxDepth = 10000

type answerReader struct {
	b     []byte // the body
	i     int    // read offset in b
	depth int    // objects and arrays open at i
	text  []byte // unescape scratch

	// Element scratch: arrays decode into these and are copied out at their
	// length.
	switches []ArtifactSummary
	strs     []string
	phases   []PhaseMs
}

var answerReaders = sync.Pool{New: func() any { return new(answerReader) }}

// decodeCompileResponse decodes a /v1/compile answer body into v.
func decodeCompileResponse(body []byte, v *CompileResponse) error {
	r := newAnswerReader(body)
	return r.done(r.compileResponse(v))
}

// decodeSessionResponse decodes a session-creation answer body into v.
func decodeSessionResponse(body []byte, v *SessionResponse) error {
	r := newAnswerReader(body)
	return r.done(r.sessionResponse(v))
}

func newAnswerReader(body []byte) *answerReader {
	r := answerReaders.Get().(*answerReader)
	r.b, r.i, r.depth = body, 0, 0
	return r
}

// done ends a read whose top-level value ended in err, refusing what follows
// the value but white space, and gives r back to the pool.
func (r *answerReader) done(err error) error {
	if err == nil {
		if r.ws(); r.i < len(r.b) {
			err = r.errorf("data after the top-level value")
		}
	}
	r.b = nil
	if cap(r.text) <= maxPooledBody {
		clear(r.text[:cap(r.text)])
		answerReaders.Put(r)
	}
	return err
}

func (r *answerReader) errorf(format string, args ...any) error {
	return fmt.Errorf("serve: response body at offset %d: %s", r.i, fmt.Sprintf(format, args...))
}

var errEnd = errors.New("serve: response body ends inside a value")

// ws skips JSON white space.
func (r *answerReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// peek skips white space and returns the byte a value starts with.
func (r *answerReader) peek() (byte, error) {
	r.ws()
	if r.i >= len(r.b) {
		return 0, errEnd
	}
	return r.b[r.i], nil
}

// open consumes the '{' or '[' at i.
func (r *answerReader) open() error {
	r.i++
	if r.depth++; r.depth > maxDepth {
		return r.errorf("nested deeper than %d", maxDepth)
	}
	return nil
}

// object reads the start of an object into a struct: isNull when the value
// is null (the struct is left as it is), an error when it is neither.
func (r *answerReader) object() (isNull bool, err error) {
	c, err := r.peek()
	switch {
	case err != nil:
		return false, err
	case c == 'n':
		return true, r.literal("null")
	case c != '{':
		return false, r.errorf("want an object, found %q", c)
	}
	return false, r.open()
}

// member steps to the next member of an object whose '{' has been read and
// returns its key, unescaped, with the ':' consumed; ok is false once the
// closing '}' is consumed. The key is valid until the next string is read.
func (r *answerReader) member(first bool) (key []byte, ok bool, err error) {
	c, err := r.peek()
	if err != nil {
		return nil, false, err
	}
	if c == '}' {
		r.i++
		r.depth--
		return nil, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, r.errorf("want ',' or '}' after an object member, found %q", c)
		}
		r.i++
		if c, err = r.peek(); err != nil {
			return nil, false, err
		}
	}
	if c != '"' {
		return nil, false, r.errorf("want a member name, found %q", c)
	}
	if key, err = r.stringBytes(); err != nil {
		return nil, false, err
	}
	if c, err = r.peek(); err != nil {
		return nil, false, err
	}
	if c != ':' {
		return nil, false, r.errorf("want ':' after a member name, found %q", c)
	}
	r.i++
	return key, true, nil
}

// element steps to the next element of an array whose '[' has been read; ok
// is false once the closing ']' is consumed.
func (r *answerReader) element(first bool) (ok bool, err error) {
	c, err := r.peek()
	switch {
	case err != nil:
		return false, err
	case c == ']':
		r.i++
		r.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		r.i++
		return true, nil
	}
	return false, r.errorf("want ',' or ']' after an array element, found %q", c)
}

// literal consumes the literal word (true, false or null) at i.
func (r *answerReader) literal(word string) error {
	if len(r.b)-r.i < len(word) || string(r.b[r.i:r.i+len(word)]) != word {
		return r.errorf("invalid literal, want %s", word)
	}
	r.i += len(word)
	return nil
}

// stringBytes reads the string whose opening quote is at i and returns its
// text: a slice of the body when it holds no escape and is valid UTF-8,
// otherwise the unescaped text in r.text.
func (r *answerReader) stringBytes() ([]byte, error) {
	b := r.b
	start := r.i + 1
	out, unescaped := r.text[:0], false
	run := start // start of the text not yet copied into out
	for j := start; j < len(b); {
		c := b[j]
		switch {
		case c == '"':
			r.i = j + 1
			if !unescaped {
				return b[start:j], nil
			}
			out = append(out, b[run:j]...)
			r.text = out
			return out, nil
		case c == '\\':
			out = append(out, b[run:j]...)
			unescaped = true
			if j+1 >= len(b) {
				return nil, errEnd
			}
			switch e := b[j+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(b, j)
				if rr < 0 {
					r.i = j
					return nil, r.errorf("invalid \\u escape")
				}
				j += 6
				if utf16.IsSurrogate(rr) {
					// A valid pair is one rune; anything else is U+FFFD and
					// leaves what follows to be read on its own.
					if dec := utf16.DecodeRune(rr, hex4(b, j)); dec != unicode.ReplacementChar {
						rr = dec
						j += 6
					} else {
						rr = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, rr)
				run = j
				continue
			default:
				r.i = j
				return nil, r.errorf("invalid escape %q", e)
			}
			j += 2
			run = j
		case c < ' ':
			r.i = j
			return nil, r.errorf("control character %q in a string", c)
		case c < utf8.RuneSelf:
			j++
		default:
			rr, n := utf8.DecodeRune(b[j:])
			if rr == utf8.RuneError && n == 1 {
				out = append(out, b[run:j]...)
				out = utf8.AppendRune(out, utf8.RuneError)
				unescaped = true
				run = j + 1
			}
			j += n
		}
	}
	r.text = out
	return nil, errEnd
}

// hex4 reads the \uXXXX escape at b[j:], or returns -1.
func hex4(b []byte, j int) rune {
	if len(b)-j < 6 || b[j] != '\\' || b[j+1] != 'u' {
		return -1
	}
	var rr rune
	for _, c := range b[j+2 : j+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		rr = rr*16 + rune(c)
	}
	return rr
}

// number reads the JSON number at i and returns its text.
func (r *answerReader) number() ([]byte, error) {
	b, j := r.b, r.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	if j < len(b) && b[j] == '0' {
		j++
	} else if j = digits(b, j); j < 0 {
		return nil, r.errorf("invalid number")
	}
	if j < len(b) && b[j] == '.' {
		if j = digits(b, j+1); j < 0 {
			return nil, r.errorf("invalid number")
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if j = digits(b, j); j < 0 {
			return nil, r.errorf("invalid number")
		}
	}
	num := b[r.i:j]
	r.i = j
	return num, nil
}

// digits returns the end of the run of digits at b[j:], or -1 if there is
// none.
func digits(b []byte, j int) int {
	k := j
	for k < len(b) && '0' <= b[k] && b[k] <= '9' {
		k++
	}
	if k == j {
		return -1
	}
	return k
}

// str reads a string into *v; null leaves it as it is.
func (r *answerReader) str(v *string) error {
	c, err := r.peek()
	switch {
	case err != nil:
		return err
	case c == '"':
		s, err := r.stringBytes()
		if err == nil {
			*v = string(s)
		}
		return err
	case c == 'n':
		return r.literal("null")
	}
	return r.errorf("want a string, found %q", c)
}

// boolean reads true or false into *v; null leaves it as it is.
func (r *answerReader) boolean(v *bool) error {
	c, err := r.peek()
	switch {
	case err != nil:
		return err
	case c == 't':
		*v = true
		return r.literal("true")
	case c == 'f':
		*v = false
		return r.literal("false")
	case c == 'n':
		return r.literal("null")
	}
	return r.errorf("want a bool, found %q", c)
}

// integer reads an integer into *v: a number with a fraction or an exponent,
// or one an int cannot hold, is an error. null leaves *v as it is.
func (r *answerReader) integer(v *int) error {
	c, err := r.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return r.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return r.errorf("want a number, found %q", c)
	}
	num, err := r.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		return r.errorf("number %s is not an int", num)
	}
	*v = int(n)
	return nil
}

// float reads a number into *v; null leaves it as it is.
func (r *answerReader) float(v *float64) error {
	c, err := r.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return r.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return r.errorf("want a number, found %q", c)
	}
	num, err := r.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return r.errorf("number %s is out of range", num)
	}
	*v = f
	return nil
}

// skip reads past one value of any kind, checking its syntax.
func (r *answerReader) skip() error {
	c, err := r.peek()
	if err != nil {
		return err
	}
	switch c {
	case '"':
		_, err := r.stringBytes()
		return err
	case '{':
		if err := r.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, ok, err := r.member(first)
			if err != nil || !ok {
				return err
			}
			if err := r.skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := r.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			ok, err := r.element(first)
			if err != nil || !ok {
				return err
			}
			if err := r.skip(); err != nil {
				return err
			}
		}
	case 't':
		return r.literal("true")
	case 'f':
		return r.literal("false")
	case 'n':
		return r.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return r.errorf("invalid character %q looking for a value", c)
	}
	_, err = r.number()
	return err
}

// readSlice reads an array into *s as encoding/json does: null sets *s to
// nil and [] to an empty slice; elements decode over those already in the
// slice's backing array, which only a repeated key leaves there. A slice
// with no backing array is filled through the pooled scratch and copied out
// at its length.
func readSlice[T any](r *answerReader, s *[]T, scratch *[]T, elem func(*answerReader, *T) error) error {
	c, err := r.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		*s = nil
		return r.literal("null")
	case c != '[':
		return r.errorf("want an array, found %q", c)
	}
	if err := r.open(); err != nil {
		return err
	}
	inPlace := cap(*s) > 0
	buf := *s
	if !inPlace {
		buf = (*scratch)[:0]
	}
	var zero T
	n := 0
	for first := true; ; first = false {
		ok, err := r.element(first)
		if err == nil && ok {
			if n == cap(buf) {
				buf = append(buf[:n], zero)
			}
			buf = buf[:n+1]
			err = elem(r, &buf[n])
			n++
		}
		if err != nil {
			if !inPlace {
				clear(buf)
				*scratch = buf[:0]
			}
			return err
		}
		if !ok {
			break
		}
	}
	switch {
	case n == 0:
		*s = make([]T, 0)
	case inPlace:
		*s = buf[:n]
	default:
		*s = make([]T, n)
		copy(*s, buf)
		clear(buf)
	}
	if !inPlace {
		*scratch = buf[:0]
	}
	return nil
}

// Member names, folded as encoding/json folds them to match keys.
const (
	nameFingerprint = "FINGERPRINT"
	nameSwitches    = "SWITCHES"
	nameDegraded    = "DEGRADED"
	nameCached      = "CACHED"
	nameDeduped     = "DEDUPED"
	nameCompileMs   = "COMPILE_MS"
	nameSolveMs     = "SOLVE_MS"
	namePhases      = "PHASES"
	nameSwitch      = "SWITCH"
	nameDialect     = "DIALECT"
	nameLoC         = "LOC"
	nameTables      = "TABLES"
	nameCode        = "CODE"
	namePhase       = "PHASE"
	nameMs          = "MS"
	nameID          = "ID"
	nameCompile     = "COMPILE"
)

// keyIs reports whether key names the field whose folded (upper-case ASCII)
// name is name: encoding/json's match, which folds ASCII letters to upper
// case and any other rune to the least rune of its case-folding orbit (so
// "ſ", U+017F, matches an "s").
func keyIs(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		c := key[i]
		if c < utf8.RuneSelf {
			i++
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
		} else {
			rr, n := utf8.DecodeRune(key[i:])
			i += n
			rr = foldRune(rr)
			if rr >= utf8.RuneSelf {
				return false
			}
			c = byte(rr)
		}
		if j >= len(name) || name[j] != c {
			return false
		}
	}
	return j == len(name)
}

// foldRune is encoding/json's: the least rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

func (r *answerReader) compileResponse(v *CompileResponse) error {
	if isNull, err := r.object(); isNull || err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := r.member(first)
		if err != nil || !ok {
			return err
		}
		switch {
		case keyIs(key, nameFingerprint):
			err = r.str(&v.Fingerprint)
		case keyIs(key, nameSwitches):
			err = readSlice(r, &v.Switches, &r.switches, (*answerReader).artifact)
		case keyIs(key, nameDegraded):
			err = readSlice(r, &v.Degraded, &r.strs, (*answerReader).str)
		case keyIs(key, nameCached):
			err = r.boolean(&v.Cached)
		case keyIs(key, nameDeduped):
			err = r.boolean(&v.Deduped)
		case keyIs(key, nameCompileMs):
			err = r.float(&v.CompileMs)
		case keyIs(key, nameSolveMs):
			err = r.float(&v.SolveMs)
		case keyIs(key, namePhases):
			err = readSlice(r, &v.Phases, &r.phases, (*answerReader).phase)
		default:
			err = r.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (r *answerReader) artifact(v *ArtifactSummary) error {
	if isNull, err := r.object(); isNull || err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := r.member(first)
		if err != nil || !ok {
			return err
		}
		switch {
		case keyIs(key, nameSwitch):
			err = r.str(&v.Switch)
		case keyIs(key, nameDialect):
			err = r.str(&v.Dialect)
		case keyIs(key, nameLoC):
			err = r.integer(&v.LoC)
		case keyIs(key, nameTables):
			err = r.integer(&v.Tables)
		case keyIs(key, nameCode):
			err = r.str(&v.Code)
		default:
			err = r.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (r *answerReader) phase(v *PhaseMs) error {
	if isNull, err := r.object(); isNull || err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := r.member(first)
		if err != nil || !ok {
			return err
		}
		switch {
		case keyIs(key, namePhase):
			err = r.str(&v.Phase)
		case keyIs(key, nameMs):
			err = r.float(&v.Ms)
		default:
			err = r.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (r *answerReader) sessionResponse(v *SessionResponse) error {
	if isNull, err := r.object(); isNull || err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := r.member(first)
		if err != nil || !ok {
			return err
		}
		switch {
		case keyIs(key, nameID):
			err = r.str(&v.ID)
		case keyIs(key, nameCompile):
			err = r.compileResponse(&v.Compile)
		default:
			err = r.skip()
		}
		if err != nil {
			return err
		}
	}
}
