package dataset

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// parseError reports a malformed ARFF input.
type parseError struct {
	Line int
	Msg  string
}

func (e *parseError) Error() string {
	return fmt.Sprintf("arff: line %d: %s", e.Line, e.Msg)
}

// readARFF parses an ARFF stream produced by WriteARFF or a compatible
// tool. The final attribute is taken as the class and must be nominal.
// It is the test oracle of WriteARFF: FuzzARFFRoundTrip requires every
// input it accepts to survive write→read→write unchanged.
func readARFF(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)

	var (
		name    string
		attrs   []Attribute
		lineNo  int
		inData  bool
		dataset *Dataset
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if !inData {
			lower := strings.ToLower(line)
			switch {
			case strings.HasPrefix(lower, "@relation"):
				name = unquote(strings.TrimSpace(line[len("@relation"):]))
			case strings.HasPrefix(lower, "@attribute"):
				attr, err := parseAttribute(strings.TrimSpace(line[len("@attribute"):]), lineNo)
				if err != nil {
					return nil, err
				}
				attrs = append(attrs, attr)
			case strings.HasPrefix(lower, "@data"):
				if len(attrs) < 2 {
					return nil, &parseError{Line: lineNo, Msg: "need at least one attribute plus a class"}
				}
				class := attrs[len(attrs)-1]
				if class.Type != Nominal {
					return nil, &parseError{Line: lineNo, Msg: "class attribute must be nominal"}
				}
				dataset = New(name, attrs[:len(attrs)-1], class.Values)
				inData = true
			default:
				return nil, &parseError{Line: lineNo, Msg: "unexpected header line: " + line}
			}
			continue
		}
		if err := parseDataRow(dataset, line, lineNo); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("arff: read: %w", err)
	}
	if dataset == nil {
		return nil, &parseError{Line: lineNo, Msg: "missing @data section"}
	}
	return dataset, nil
}

func parseAttribute(rest string, lineNo int) (Attribute, error) {
	attrName, rest, err := takeToken(rest)
	if err != nil {
		return Attribute{}, &parseError{Line: lineNo, Msg: "attribute missing name"}
	}
	rest = strings.TrimSpace(rest)
	lower := strings.ToLower(rest)
	switch {
	case lower == "numeric" || lower == "real" || lower == "integer":
		return NumericAttr(attrName), nil
	case strings.HasPrefix(rest, "{") && strings.HasSuffix(rest, "}"):
		inner := rest[1 : len(rest)-1]
		parts := splitCSV(inner)
		vals := make([]string, 0, len(parts))
		for _, p := range parts {
			vals = append(vals, unquote(strings.TrimSpace(p)))
		}
		return NominalAttr(attrName, vals...), nil
	default:
		return Attribute{}, &parseError{Line: lineNo, Msg: "unsupported attribute type: " + rest}
	}
}

func parseDataRow(d *Dataset, line string, lineNo int) error {
	parts := splitCSV(line)
	if len(parts) != len(d.Attrs)+1 {
		return &parseError{Line: lineNo, Msg: fmt.Sprintf("got %d fields, want %d", len(parts), len(d.Attrs)+1)}
	}
	in := Instance{Values: make([]float64, len(d.Attrs)), Weight: 1}
	for j := 0; j < len(d.Attrs); j++ {
		field := unquote(strings.TrimSpace(parts[j]))
		if field == "?" {
			in.Values[j] = Missing
			continue
		}
		if d.Attrs[j].Type == Nominal {
			idx := slices.Index(d.Attrs[j].Values, field)
			if idx < 0 {
				return &parseError{Line: lineNo, Msg: fmt.Sprintf("value %q not in domain of %q", field, d.Attrs[j].Name)}
			}
			in.Values[j] = float64(idx)
			continue
		}
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return &parseError{Line: lineNo, Msg: fmt.Sprintf("bad numeric value %q", field)}
		}
		in.Values[j] = v
	}
	classField := unquote(strings.TrimSpace(parts[len(parts)-1]))
	found := false
	for c, v := range d.ClassValues {
		if v == classField {
			in.Class = c
			found = true
			break
		}
	}
	if !found {
		return &parseError{Line: lineNo, Msg: fmt.Sprintf("unknown class %q", classField)}
	}
	return d.Add(in)
}

// takeToken splits off the first whitespace- or quote-delimited token.
// Inside quotes a backslash escapes the next byte (the form
// quoteIfNeeded emits); the returned token is unescaped.
func takeToken(s string) (token, rest string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", "", fmt.Errorf("empty")
	}
	if s[0] == '\'' || s[0] == '"' {
		q := s[0]
		for i := 1; i < len(s); i++ {
			switch s[i] {
			case '\\':
				i++ // skip the escaped byte
			case q:
				return unescape(s[1:i]), s[i+1:], nil
			}
		}
		return "", "", fmt.Errorf("unterminated quote")
	}
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i], s[i:], nil
		}
	}
	return s, "", nil
}

// splitCSV splits on commas while respecting single/double quotes.
// Inside quotes a backslash escapes the next byte, so escaped quote
// characters neither close the quote nor allow a split.
func splitCSV(s string) []string {
	var parts []string
	var sb strings.Builder
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == '\\' && i+1 < len(s) {
				sb.WriteByte(c)
				i++
				sb.WriteByte(s[i])
				continue
			}
			if c == quote {
				quote = 0
			}
			sb.WriteByte(c)
		case c == '\'' || c == '"':
			quote = c
			sb.WriteByte(c)
		case c == ',':
			parts = append(parts, sb.String())
			sb.Reset()
		default:
			sb.WriteByte(c)
		}
	}
	parts = append(parts, sb.String())
	return parts
}

func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '\'' && s[len(s)-1] == '\'') || (s[0] == '"' && s[len(s)-1] == '"') {
			return unescape(s[1 : len(s)-1])
		}
	}
	return s
}

// unescape resolves backslash escapes left-to-right; a ReplaceAll pair
// would corrupt adjacent escapes (`\\` followed by `\'`).
func unescape(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}
