package core

import (
	"bufio"
	"os"
	"reflect"
	"strings"
	"testing"
)

// eventKeys lists the JSON keys of a struct's fields in order, descending
// into embedded structs the way encoding/json does. A field without a tag
// is reported under its Go name, which no catalogue row uses.
func eventKeys(t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("json")
		name, _, _ := strings.Cut(tag, ",")
		switch {
		case name == "-":
		case f.Anonymous && !ok && f.Type.Kind() == reflect.Struct:
			keys = append(keys, eventKeys(f.Type)...)
		case name == "":
			keys = append(keys, f.Name)
		default:
			keys = append(keys, name)
		}
	}
	return keys
}

// TestEventCatalogue holds DESIGN.md §11's epoch-event table to the record:
// every JSON key of EpochEvent, the embedded worker.EpochReport's included,
// has a row, and every row names a key.
func TestEventCatalogue(t *testing.T) {
	f, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]bool{}
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "| key | part | meaning |" {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cell, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		rows[strings.Trim(strings.TrimSpace(cell), "`")] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md has no `| key | part | meaning |` table")
	}
	keys := map[string]bool{}
	for _, k := range eventKeys(reflect.TypeOf(EpochEvent{})) {
		if keys[k] {
			t.Errorf("key %q appears twice in EpochEvent", k)
		}
		keys[k] = true
		if !rows[k] {
			t.Errorf("EpochEvent key %q has no row in DESIGN.md §11", k)
		}
	}
	for k := range rows {
		if !keys[k] {
			t.Errorf("DESIGN.md §11 row %q names no EpochEvent key", k)
		}
	}
}
