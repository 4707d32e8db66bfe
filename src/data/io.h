// CSV import/export of tangled key-value sequence corpora.
//
// This is the bring-your-own-data path: a downstream user converts real
// traces (packet captures, clickstreams, rating logs) into this CSV layout
// and trains KVEC on them without touching the generators.
//
// Layout (header required):
//   episode,key,time,label,v0,v1,...[,true_halt]
// One row per item, rows of one episode contiguous and time-ordered within
// the episode. `label` is the class of the item's key-value sequence and
// must be consistent for all items of one (episode, key). `true_halt` is
// optional ground truth for halting-position evaluation (0 = unknown).
#pragma once

#include <string>
#include <vector>

#include "data/types.h"

namespace kvec {

// Serialises episodes; every item must have `num_value_fields` values.
std::string TangledSequencesToCsv(const std::vector<TangledSequence>& episodes,
                                  int num_value_fields);

// Parses the CSV layout above. Returns false (and leaves `episodes`
// untouched) on malformed input: missing columns, ragged rows,
// non-numeric fields, inconsistent labels, or out-of-order times.
bool TangledSequencesFromCsv(const std::string& csv,
                             std::vector<TangledSequence>* episodes);

// The strict field parsers behind the CSV layout above (and the `kvec`
// CLI's spec.csv): the whole of `text` must be one decimal int / double
// that fits its type — an empty field, trailing characters, or a value
// strtol/strtod would report out of range (an int past INT_MAX, a double
// that overflows or underflows) return false and leave `*out` untouched.
bool ParseIntField(const std::string& text, int* out);
bool ParseDoubleField(const std::string& text, double* out);

// File convenience wrappers; false on I/O or parse failure.
bool SaveTangledSequences(const std::vector<TangledSequence>& episodes,
                          int num_value_fields, const std::string& path);
bool LoadTangledSequences(const std::string& path,
                          std::vector<TangledSequence>* episodes);

}  // namespace kvec

