package knob_test

import (
	"math"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/eddpc"
	"repro/internal/experiments"
	"repro/internal/ingest"
	"repro/internal/kmeansmr"
	"repro/internal/knnjoin"
	"repro/internal/serve"
)

type validator interface{ Validate() error }

// configs lists every config with a Validate, each at a value it accepts.
var configs = []validator{
	&core.Config{},
	&core.LSHConfig{},
	&core.BasicConfig{},
	&eddpc.Config{},
	&experiments.Options{},
	&kmeansmr.Config{K: 2},
	&knnjoin.Config{},
	&serve.Config{},
	&ingest.Config{},
}

// exempt names the numeric fields Validate lets take any value, each with
// its reason.
var exempt = map[string]string{
	"Seed": "a seed only names a random stream, and every value names one",
}

// field is one settable field of a config: its name and its index path
// through embedded structs.
type field struct {
	name  string
	index []int
}

// fields lists t's exported fields, those of its embedded structs in their
// place.
func fields(t reflect.Type, prefix []int) []field {
	var out []field
	for i := range t.NumField() {
		f := t.Field(i)
		index := append(append([]int(nil), prefix...), i)
		switch {
		case f.Anonymous && f.Type.Kind() == reflect.Struct:
			out = append(out, fields(f.Type, index)...)
		case f.IsExported():
			out = append(out, field{f.Name, index})
		}
	}
	return out
}

// badValues returns the values a number of kind k cannot mean: negatives,
// and for floats NaN and ±Inf. ok is false for a kind that is no number.
func badValues(k reflect.Kind) (vals []float64, ok bool) {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return []float64{-1}, true
	case reflect.Float32, reflect.Float64:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}, true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return nil, true
	}
	return nil, false
}

// set stores x in the number v is or points to, allocating the pointee.
func set(v reflect.Value, x float64) {
	if v.Kind() == reflect.Pointer {
		v.Set(reflect.New(v.Type().Elem()))
		v = v.Elem()
	}
	if v.CanInt() {
		v.SetInt(int64(x))
	} else {
		v.SetFloat(x)
	}
}

// TestValidateRefusesEveryNumericField: for every numeric field of every
// config — embedded configs' and pointer-to-number fields included — Validate
// refuses a negative value, and for a float NaN and ±Inf too, with an error
// that names that field and no other. The fields are found by reflection, so
// a field added later is covered without an edit here; only a field on the
// exempt list takes those values, and Validate must accept them there.
func TestValidateRefusesEveryNumericField(t *testing.T) {
	met := map[string]bool{}
	for _, base := range configs {
		typ := reflect.TypeOf(base).Elem()
		if err := base.Validate(); err != nil {
			t.Errorf("%s: the base config is refused: %v", typ, err)
			continue
		}
		fs := fields(typ, nil)
		for _, f := range fs {
			ft := typ.FieldByIndex(f.index).Type
			kind := ft.Kind()
			if kind == reflect.Pointer {
				kind = ft.Elem().Kind()
			}
			vals, numeric := badValues(kind)
			if !numeric {
				continue
			}
			_, free := exempt[f.name]
			met[f.name] = met[f.name] || free
			if len(vals) == 0 && !free {
				t.Errorf("%s.%s is unsigned: no value is out of range, so give it a domain or an exemption", typ, f.name)
			}
			for _, x := range vals {
				cfg := reflect.New(typ)
				cfg.Elem().Set(reflect.ValueOf(base).Elem())
				set(cfg.Elem().FieldByIndex(f.index), x)
				err := cfg.Interface().(validator).Validate()
				if free {
					if err != nil {
						t.Errorf("%s.%s = %v: exempt, yet refused: %v", typ, f.name, x, err)
					}
					continue
				}
				if err == nil {
					t.Errorf("%s.%s = %v: accepted", typ, f.name, x)
					continue
				}
				for _, other := range fs {
					named := regexp.MustCompile(`\b` + other.name + `\b`).MatchString(err.Error())
					if named != (other.name == f.name) {
						t.Errorf("%s.%s = %v: error %q, naming %s is %v", typ, f.name, x, err, other.name, named)
					}
				}
			}
		}
	}
	for name := range exempt {
		if !met[name] {
			t.Errorf("exempt field %s is in no config", name)
		}
	}
}
