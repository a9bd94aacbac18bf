package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// digestFile pins, for the default seed, a SHA-256 of each workload's
// checked outputs: the FlowResults of the first round of runs (the serve
// workload: its in-process reference results) and every figure TSV.
const digestFile = "screambench/digests.json"

// digester accumulates values into one SHA-256.
type digester struct{ h [32]byte }

func newDigester() *digester { return &digester{} }

// add folds v's JSON encoding into the digest. encoding/json writes struct
// fields in declaration order and floats in their shortest exact form, so
// equal values always give equal bytes.
func (d *digester) add(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	d.h = sha256.Sum256(append(d.h[:], b...))
	return nil
}

func (d *digester) hex() string { return hex.EncodeToString(d.h[:]) }

// digestBytes is the SHA-256 of b.
func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkDigest compares got with the recorded digest for key when the run
// uses the default seed (figure digests do not depend on the seed, so
// their callers pass seedless=true). A mismatch or a missing record is a
// failed check.
func checkDigest(rep *report, key, got string, seed int64, seedless bool) {
	if noted[key] == got {
		return // already checked in this run
	}
	noted[key] = got
	rep.note("digest %s = %s", key, got)
	if seed != defaultSeed && !seedless {
		return
	}
	want, err := recordedDigests()
	if err != nil {
		rep.fail("digests: %v", err)
		return
	}
	if w, ok := want[key]; !ok {
		rep.fail("digest %s: nothing recorded in %s", key, digestFile)
	} else if w != got {
		rep.fail("digest %s: got %s, recorded %s", key, got, w)
	}
}

var (
	digestCache map[string]string
	noted       = make(map[string]string)
)

func recordedDigests() (map[string]string, error) {
	if digestCache != nil {
		return digestCache, nil
	}
	b, err := repoFile(digestFile)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string)
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", digestFile, err)
	}
	digestCache = m
	return m, nil
}
