#include "data/types.h"

#include "util/check.h"

namespace kvec {

int TangledSequence::KeyLength(int key) const {
  int length = 0;
  for (const Item& item : items) {
    if (item.key == key) ++length;
  }
  return length;
}

int TangledSequence::TrueHaltPosition(int key) const {
  auto truth = true_halt_positions.find(key);
  return truth == true_halt_positions.end() ? 0 : truth->second;
}

void TangledSequence::Validate(int num_value_fields) const {
  double previous_time = -1.0;
  for (const Item& item : items) {
    KVEC_CHECK_GE(item.time, previous_time) << "items out of order";
    previous_time = item.time;
    KVEC_CHECK_EQ(static_cast<int>(item.value.size()), num_value_fields)
        << "value arity mismatch";
    KVEC_CHECK(labels.count(item.key)) << "item with unlabeled key";
  }
}

}  // namespace kvec
