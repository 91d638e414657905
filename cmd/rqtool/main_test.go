package main

import (
	"reflect"
	"testing"
)

func TestSplitComma(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{"a,b,c", []string{"a", "b", "c"}},
		{"a,", []string{"a"}},
		{",a", []string{"a"}},
		{"a,,b", []string{"a", "b"}},
		{"host:9000,host2:9001", []string{"host:9000", "host2:9001"}},
	}
	for _, c := range cases {
		if got := splitComma(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitComma(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
