package core

import (
	"fmt"
	"reflect"
)

// PollEach makes Compute take every back-edge poll as an event of its own,
// the reference the closed form is compared against.
func (s *System) PollEach() { s.pollEach = true }

// DiffExported names the first exported field in which two structs of one
// type differ, with both values, or returns "".
func DiffExported(want, got any) string {
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < w.NumField(); i++ {
		if f := w.Type().Field(i); f.IsExported() && !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			return fmt.Sprintf("%s differs:\n polling %.300v\n closed  %.300v", f.Name, w.Field(i), g.Field(i))
		}
	}
	return ""
}
