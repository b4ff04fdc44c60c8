// Package knob holds the range rule every config's Validate applies to its
// numeric fields: 0 asks for the field's default, and a negative, NaN or
// infinite value is refused with an error naming the field, because a
// default would otherwise hide the mistake. A config's Validate returns the
// first of its fields' refusals (cmp.Or), nil when every field is in range.
package knob

import (
	"fmt"
	"math"
)

// Count refuses a negative count or duration.
func Count[T ~int | ~int64](field string, v T) error {
	if v < 0 {
		return fmt.Errorf("%s %v is negative", field, v)
	}
	return nil
}

// Real refuses a negative, NaN or infinite value.
func Real(field string, v float64) error {
	if v >= 0 && v <= math.MaxFloat64 {
		return nil
	}
	return fmt.Errorf("%s %v is negative or not finite", field, v)
}

// Fraction refuses a value outside [0, 1), NaN included.
func Fraction(field string, v float64) error {
	if v >= 0 && v < 1 {
		return nil
	}
	return fmt.Errorf("%s %v is negative, not finite or not below 1", field, v)
}
