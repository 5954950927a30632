package trace

import (
	"errors"
	"fmt"
	"os"
)

// Spec names one trace the way every front end asks for it: where it comes
// from (the built-in generator, its memory-heavy modified variant, a
// workload family or a .csv/.csv.gz file) and the envelope it is generated
// into. The JSON keys are the gateway's wire names, and every error names
// the key at fault, so a flag and a request body get one message.
type Spec struct {
	// Family generates the trace from a workload family (FamilyNames).
	Family string `json:"family,omitempty"`
	// File imports the trace from disk; its fleet size and horizon are
	// derived from the tasks, not from the envelope.
	File string `json:"file,omitempty"`
	// Modified selects the paper's memory-heavy variant of the generator.
	Modified bool `json:"modified,omitempty"`

	Machines   int   `json:"machines"`
	Tasks      int   `json:"tasks"`
	HorizonSec int64 `json:"horizon_sec"`
	Seed       int64 `json:"seed"`
}

// OutOfRange is the one message format of a rejected spec value: the JSON
// key, the value and the range it needed.
func OutOfRange(key string, v int64, need string) error {
	return fmt.Errorf("%s %d out of range (need %s)", key, v, need)
}

// Validate is the spec's shape check: a positive envelope, at most one of
// family, file and modified, and a family name that resolves.
func (s Spec) Validate() error {
	switch {
	case s.Machines < 1:
		return OutOfRange("machines", int64(s.Machines), ">= 1")
	case s.Tasks < 1:
		return OutOfRange("tasks", int64(s.Tasks), ">= 1")
	case s.HorizonSec < 1:
		return OutOfRange("horizon_sec", s.HorizonSec, ">= 1")
	case s.Family != "" && s.File != "":
		return errors.New("family and file are mutually exclusive")
	case s.Modified && (s.Family != "" || s.File != ""):
		return errors.New("modified applies to the built-in generator only; drop it with family or file")
	}
	if s.Family != "" {
		if _, err := FamilyByName(s.Family); err != nil {
			return fmt.Errorf("family: %w", err)
		}
	}
	return nil
}

// Open validates the spec and builds its trace: the family's, the file's
// (streamed record-at-a-time, gzip sniffed), or the built-in generator's
// original or, with Modified, memory-heavy demand mix.
func (s Spec) Open() (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch {
	case s.Family != "":
		return GenerateFamily(s.Family, s)
	case s.File != "":
		f, err := os.Open(s.File)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return Import(f, ImportOptions{})
	}
	cfg := DefaultConfig()
	if s.Modified {
		cfg = ModifiedConfig()
	}
	cfg.Machines, cfg.Tasks, cfg.HorizonSec, cfg.Seed = s.Machines, s.Tasks, s.HorizonSec, s.Seed
	return Generate(cfg)
}
