#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

namespace speedbal::obs {

/// Append-only record log with one counter per value of the record's
/// reason/outcome field (`KeyField`, an enum numbered 0..NumKeys-1). Record
/// storage is capped (counters are not), so a pathological run cannot grow
/// the log unboundedly while the totals stay truthful. Every member is
/// internally synchronized: producers on a worker thread and an exporting
/// thread need no external locking.
template <class Record, auto KeyField, int NumKeys>
class CappedLog {
 public:
  using Key = std::remove_cvref_t<decltype(std::declval<const Record&>().*KeyField)>;
  using Counts = std::array<std::int64_t, NumKeys>;

  void add(const Record& rec) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counts_[index(rec.*KeyField)];
    if (records_.size() >= record_cap_) {
      ++dropped_;
      return;
    }
    records_.push_back(rec);
  }

  std::vector<Record> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  std::int64_t count(Key k) const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_[index(k)];
  }

  Counts counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

  std::int64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  void set_record_cap(std::size_t cap) {
    std::lock_guard<std::mutex> lock(mu_);
    record_cap_ = cap;
  }

 private:
  static std::size_t index(Key k) { return static_cast<std::size_t>(k); }

  mutable std::mutex mu_;
  std::vector<Record> records_;
  Counts counts_{};
  std::size_t record_cap_ = 100000;
  std::int64_t dropped_ = 0;
};

}  // namespace speedbal::obs
