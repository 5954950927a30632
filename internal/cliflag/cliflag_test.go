package cliflag

import (
	"errors"
	"testing"
)

func TestPositiveInt(t *testing.T) {
	cases := []struct {
		v    int
		want string // empty means no error
	}{
		{1, ""},
		{100, ""},
		{0, "-racks 0 out of range (need >= 1)"},
		{-3, "-racks -3 out of range (need >= 1)"},
	}
	for _, c := range cases {
		err := PositiveInt("-racks", c.v)
		if c.want == "" {
			if err != nil {
				t.Errorf("PositiveInt(-racks, %d) = %v, want nil", c.v, err)
			}
			continue
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("PositiveInt(-racks, %d) = %v, want %q", c.v, err, c.want)
		}
	}
}

func TestPositiveFloat(t *testing.T) {
	if err := PositiveFloat("-vm-gib", 0.5); err != nil {
		t.Errorf("valid -vm-gib rejected: %v", err)
	}
	want := "-vm-gib 0 out of range (need > 0)"
	if err := PositiveFloat("-vm-gib", 0); err == nil || err.Error() != want {
		t.Errorf("PositiveFloat(-vm-gib, 0) = %v, want %q", err, want)
	}
	if err := PositiveFloat("-vm-gib", -2.5); err == nil {
		t.Error("negative -vm-gib accepted")
	}
}

func TestNonNegativeInt(t *testing.T) {
	if err := NonNegativeInt("-zombies", 0); err != nil {
		t.Errorf("zero rejected: %v", err)
	}
	want := "-zombies -1 out of range (need >= 0)"
	if err := NonNegativeInt("-zombies", -1); err == nil || err.Error() != want {
		t.Errorf("NonNegativeInt(-zombies, -1) = %v, want %q", err, want)
	}
}

func TestFirstError(t *testing.T) {
	if err := FirstError(nil, nil, nil); err != nil {
		t.Errorf("all-nil FirstError = %v", err)
	}
	e1 := errors.New("first")
	e2 := errors.New("second")
	if err := FirstError(nil, e1, e2); err != e1 {
		t.Errorf("FirstError = %v, want %v (flag order)", err, e1)
	}
	if err := FirstError(); err != nil {
		t.Errorf("empty FirstError = %v", err)
	}
}
