package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// SpecFile is the on-disk experiment description consumed by cmd/sweep:
// a list of runs plus optional shared defaults.
type SpecFile struct {
	// Comment is free-form documentation carried in the file.
	Comment string `json:"comment,omitempty"`
	// Defaults, when present, fills in every zero-valued field of every
	// run except its label.
	Defaults *RunSpec  `json:"defaults,omitempty"`
	Runs     []RunSpec `json:"runs"`
}

// LoadSpecs reads a SpecFile from path, applies its defaults and
// validates every run, so a bad spec fails at load, not mid-sweep. A
// key the file format does not define is an error.
func LoadSpecs(path string) ([]RunSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var sf SpecFile
	if err := dec.Decode(&sf); err != nil {
		return nil, fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	if len(sf.Runs) == 0 {
		return nil, fmt.Errorf("experiments: %s contains no runs", path)
	}
	for i := range sf.Runs {
		applyDefaults(&sf.Runs[i], sf.Defaults)
		if err := sf.Runs[i].Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %s run %d: %w", path, i, err)
		}
	}
	return sf.Runs, nil
}

// SaveSpecs writes runs as a SpecFile.
func SaveSpecs(path, comment string, runs []RunSpec) error {
	blob, err := json.MarshalIndent(SpecFile{Comment: comment, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// applyDefaults gives every zero-valued field of rs but its label the
// value d holds. It walks the struct, so a field added to RunSpec takes
// its default without a change here.
func applyDefaults(rs *RunSpec, d *RunSpec) {
	if d == nil {
		return
	}
	run, def := reflect.ValueOf(rs).Elem(), reflect.ValueOf(d).Elem()
	for i := range run.NumField() {
		if f := run.Field(i); f.IsZero() && run.Type().Field(i).Name != "Label" {
			f.Set(def.Field(i))
		}
	}
}
