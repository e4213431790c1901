package propane

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"edem/internal/bitflip"
)

// readLog parses a PROPANE log stream written by WriteLog. It is the
// test oracle of WriteLog: FuzzReadLog requires every input it accepts
// to survive write→read→write unchanged.
func readLog(r io.Reader) (*Campaign, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	c := &Campaign{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "#PROPANE"):
			// version line; only v1 exists.
		case line == "#target" || line == "#dataset" || line == "#module" || line == "#vars":
			// A header keyword with an empty value (hand-written logs, or
			// logs from writers that emitted empty headers): nothing to set.
		case strings.HasPrefix(line, "#target "):
			c.Target = line[len("#target "):]
		case strings.HasPrefix(line, "#dataset "):
			c.Spec.Dataset = line[len("#dataset "):]
		case strings.HasPrefix(line, "#module "):
			c.Spec.Module = line[len("#module "):]
		case strings.HasPrefix(line, "#inject "):
			loc, err := parseLocation(line[len("#inject "):])
			if err != nil {
				return nil, fmt.Errorf("propane: line %d: %w", lineNo, err)
			}
			c.Spec.InjectAt = loc
		case strings.HasPrefix(line, "#sample "):
			loc, err := parseLocation(line[len("#sample "):])
			if err != nil {
				return nil, fmt.Errorf("propane: line %d: %w", lineNo, err)
			}
			c.Spec.SampleAt = loc
		case line == "#fault":
			// Empty fault header: nothing to set (transient default).
		case strings.HasPrefix(line, "#fault "):
			f, err := parseFaultHeader(line[len("#fault "):])
			if err != nil {
				return nil, fmt.Errorf("propane: line %d: %w", lineNo, err)
			}
			c.Spec.Fault = f
		case strings.HasPrefix(line, "#vars "):
			c.VarNames = strings.Fields(line[len("#vars "):])
		case strings.HasPrefix(line, "RUN "):
			rec, err := parseRun(line[len("RUN "):])
			if err != nil {
				return nil, fmt.Errorf("propane: line %d: %w", lineNo, err)
			}
			c.Records = append(c.Records, rec)
		default:
			return nil, fmt.Errorf("propane: line %d: unrecognised line %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("propane: read log: %w", err)
	}
	return c, nil
}

// parseFaultHeader parses the "#fault <model> <width> <persist>" header
// value. Width and persist are optional and default to 1.
func parseFaultHeader(s string) (bitflip.Fault, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 || len(fields) > 3 {
		return bitflip.Fault{}, fmt.Errorf("bad fault header %q", s)
	}
	model, err := bitflip.ParseModel(fields[0])
	if err != nil {
		return bitflip.Fault{}, err
	}
	f := bitflip.Fault{Model: model, Width: 1, Persist: 1}
	if len(fields) > 1 {
		if f.Width, err = strconv.Atoi(fields[1]); err != nil {
			return bitflip.Fault{}, fmt.Errorf("bad fault width %q", fields[1])
		}
	}
	if len(fields) > 2 {
		if f.Persist, err = strconv.Atoi(fields[2]); err != nil {
			return bitflip.Fault{}, fmt.Errorf("bad fault persist %q", fields[2])
		}
	}
	if err := f.Validate(); err != nil {
		return bitflip.Fault{}, err
	}
	return f, nil
}

func parseLocation(s string) (Location, error) {
	switch strings.TrimSpace(s) {
	case "Entry":
		return Entry, nil
	case "Exit":
		return Exit, nil
	default:
		return 0, fmt.Errorf("bad location %q", s)
	}
}

func parseRun(rest string) (Record, error) {
	var rec Record
	for _, field := range strings.Fields(rest) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return rec, fmt.Errorf("bad field %q", field)
		}
		var err error
		switch key {
		case "tc":
			rec.TestCase, err = strconv.Atoi(val)
		case "var":
			rec.Var = val
		case "bit":
			rec.Bit, err = strconv.Atoi(val)
		case "t":
			rec.InjectionTime, err = strconv.Atoi(val)
		case "inj":
			rec.Injected, err = parse01(val)
		case "smp":
			rec.Sampled, err = parse01(val)
		case "fail":
			rec.Failure, err = parse01(val)
		case "crash":
			rec.Crashed, err = parse01(val)
		case "state":
			parts := strings.Split(val, ",")
			rec.State = make([]float64, len(parts))
			for i, p := range parts {
				rec.State[i], err = strconv.ParseFloat(p, 64)
				if err != nil {
					return rec, fmt.Errorf("bad state value %q", p)
				}
			}
		default:
			return rec, fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return rec, fmt.Errorf("field %q: %w", field, err)
		}
	}
	return rec, nil
}

func parse01(s string) (bool, error) {
	switch s {
	case "0":
		return false, nil
	case "1":
		return true, nil
	default:
		return false, fmt.Errorf("bad boolean %q", s)
	}
}
