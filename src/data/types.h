// Core data model: items, key-value sequences, tangled sequences, datasets.
//
// Terminology follows the paper (§III):
//  * An *item* ⟨k, v⟩ has a key field k and an l-dimensional value field v.
//    Values are categorical per dimension (continuous attributes such as
//    packet size are bucketed by the generators), so v is a vector of token
//    ids, one per value field.
//  * A *tangled key-value sequence* S is a chronologically ordered mixture of
//    items with different keys.
//  * The *key-value sequence* S_k ⊆ S is the subsequence sharing key k; each
//    S_k carries one class label.
//
// A training/evaluation corpus is a set of independent tangled sequences
// ("episodes"), each containing several concurrent key-value sequences.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace kvec {

struct Item {
  int key = 0;             // key id, local to the episode (0-based)
  std::vector<int> value;  // one token id per value field
  double time = 0.0;       // arrival timestamp (seconds, episode-relative)
};

// One tangled key-value sequence (an episode).
struct TangledSequence {
  std::vector<Item> items;    // chronological order
  std::map<int, int> labels;  // key -> class label

  // Ground-truth halting positions (key -> 1-based item index within S_k
  // after which the class is fully determined). Only populated by the
  // Synthetic-Traffic generator; empty elsewhere (paper §V-A).
  std::map<int, int> true_halt_positions;

  int num_keys() const { return static_cast<int>(labels.size()); }

  // Length |S_k|.
  int KeyLength(int key) const;

  // true_halt_positions[key], or 0 when the key has no ground truth.
  int TrueHaltPosition(int key) const;

  // Asserts chronological order, label coverage, and value-field arity.
  void Validate(int num_value_fields) const;
};

struct ValueField {
  std::string name;
  int vocab_size = 0;
};

// Static description of a dataset; everything the model needs to size its
// embedding tables, plus the Table-I-style targets the generator aims for.
struct DatasetSpec {
  std::string name;
  std::vector<ValueField> value_fields;
  int session_field = 0;  // index of the value field that defines sessions
  int num_classes = 0;
  int max_keys_per_episode = 0;     // membership-embedding vocabulary
  int max_sequence_length = 0;      // relative-position vocabulary
  int max_episode_length = 0;       // time-embedding vocabulary

  // Informational targets mirroring Table I of the paper.
  double target_avg_length = 0.0;
  double target_avg_session_length = 0.0;

  int num_value_fields() const { return static_cast<int>(value_fields.size()); }
};

struct Dataset {
  DatasetSpec spec;
  std::vector<TangledSequence> train;
  std::vector<TangledSequence> validation;
  std::vector<TangledSequence> test;
};

}  // namespace kvec

