// Profiles and profile sets.
//
// A Profile is the latency histogram of one OS operation (e.g. "read",
// "llseek", "readdir").  A ProfileSet is a "complete profile" in the
// paper's terms: the collection of per-operation profiles captured during
// one workload run, at one layer (user / file-system / driver).
//
// Storage is a flat std::vector<Profile> indexed by dense OpId (see
// op_table.h): the hot path -- AddById(handle.id(), latency) -- is one
// indexed load plus a histogram increment, with no allocation and no
// string-keyed lookup.  Iteration and text serialization go through the
// table's sorted name index, so output stays sorted-by-name and
// byte-identical regardless of the order operations were interned in.
//
// A slot can be interned without being *declared*: Resolve() pre-creates
// the slot for a probe handle but keeps it invisible to size()/iteration/
// serialization until something is recorded into it (or it is declared via
// operator[] / Parse / Merge).  This is what lets layers pre-resolve every
// probe they might fire at attach time without phantom empty profiles
// leaking into golden outputs.
//
// ProfileSet serializes to a line-oriented text format modelled on the
// paper's /proc reporting interface, and parses it back, so profiles can be
// captured in one process and analyzed in another.

#ifndef OSPROF_SRC_CORE_PROFILE_H_
#define OSPROF_SRC_CORE_PROFILE_H_

#include <cstddef>
#include <iosfwd>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/histogram.h"
#include "src/core/op_table.h"

namespace osprof {

// The latency profile of a single operation.  The histogram is the first
// member so the record path's loads land at offset zero, ahead of the cold
// operation name.
class Profile {
 public:
  Profile() : Profile("", 1) {}
  explicit Profile(std::string op_name, int resolution = 1)
      : histogram_(resolution), op_name_(std::move(op_name)) {}
  Profile(std::string op_name, Histogram histogram)
      : histogram_(std::move(histogram)), op_name_(std::move(op_name)) {}

  const std::string& op_name() const { return op_name_; }
  Histogram& histogram() { return histogram_; }
  const Histogram& histogram() const { return histogram_; }

  void Add(Cycles latency) { histogram_.Add(latency); }
  void AddInBucket(int bucket, Cycles latency) {
    histogram_.AddInBucket(bucket, latency);
  }

  // Merges another profile's measurements into this one (resolution-checked
  // by Histogram::Merge).  The operation name of `this` is kept, so sharded
  // or per-trial profiles of the same operation can be combined regardless
  // of how the shards were labelled.
  void Merge(const Profile& other) { histogram_.Merge(other.histogram_); }

  std::uint64_t total_operations() const {
    return histogram_.TotalOperations();
  }
  Cycles total_latency() const { return histogram_.total_latency(); }

 private:
  Histogram histogram_;
  std::string op_name_;
};

// A complete profile: one Profile per operation name.
class ProfileSet {
 public:
  explicit ProfileSet(int resolution = 1) : resolution_(resolution) {}

  // Interns `op` and returns a handle for the hot path.  Resolving does
  // NOT declare the operation: until something is recorded under the
  // handle, the slot stays invisible to size()/Find/iteration/Serialize.
  ProbeHandle Resolve(std::string_view op);

  // Slot access by pre-resolved id.  The reference is invalidated by the
  // next Resolve()/operator[]/Merge/Parse (vector growth); ids themselves
  // stay valid for the set's lifetime.
  Profile& ById(OpId id) { return profiles_[static_cast<std::size_t>(id)]; }
  const Profile& ById(OpId id) const {
    return profiles_[static_cast<std::size_t>(id)];
  }

  // The allocation- and lookup-free record path: indexed load, bucket
  // index, increment.
  void AddById(OpId id, Cycles latency) {
    profiles_[static_cast<std::size_t>(id)].Add(latency);
  }

  // Same, with the bucket precomputed by the caller (shared with the
  // layered decomposition's Add).
  void AddById(OpId id, int bucket, Cycles latency) {
    profiles_[static_cast<std::size_t>(id)].AddInBucket(bucket, latency);
  }

  // Returns the profile for `op`, creating (and declaring) it if absent.
  Profile& operator[](std::string_view op);

  // Returns the profile for `op`, or nullptr if it was never declared or
  // recorded into (pre-resolved but unfired probes don't count).
  const Profile* Find(std::string_view op) const;

  void Add(std::string_view op, Cycles latency) { (*this)[op].Add(latency); }

  // Merges every profile of `other` into this set, summing histograms of
  // operations present in both (paper §3.4: shards collected concurrently
  // are combined afterwards; §7: per-machine sets merge into a fleet view).
  // Throws std::invalid_argument if the resolutions differ.  Merge is
  // associative and commutative, so any merge tree over the same shards
  // yields an identical set.
  void Merge(const ProfileSet& other);

  // Zeroes every histogram and un-declares every slot in place, keeping
  // the op table (and therefore every outstanding ProbeHandle) valid.
  void ClearCounts();

  bool empty() const { return size() == 0; }
  std::size_t size() const;
  int resolution() const { return resolution_; }

  // The interning table backing this set (ids, names, sorted index).
  const OpTable& ops() const { return table_; }

  // Operation names present, sorted lexicographically.
  std::vector<std::string> OperationNames() const;

  // Operation names sorted by descending total latency: the paper's profile
  // preprocessing step ("select profiles ... that contribute the most to the
  // total latency").
  std::vector<std::string> ByTotalLatency() const;

  // Sum of total_latency over all operations.
  Cycles TotalLatency() const;
  std::uint64_t TotalOperations() const;

  // Iteration (sorted by name via the table's index; invisible slots --
  // resolved but never recorded or declared -- are skipped).  Dereferences
  // to a pair<const string&, const Profile&>, so structured-binding loops
  // written against the old map backing keep working unchanged.
  class const_iterator {
   public:
    using value_type = std::pair<const std::string&, const Profile&>;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    value_type operator*() const {
      return {it_->first, set_->ById(it_->second)};
    }
    const_iterator& operator++() {
      ++it_;
      SkipInvisible();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }
    bool operator==(const const_iterator& other) const {
      return it_ == other.it_;
    }
    bool operator!=(const const_iterator& other) const {
      return it_ != other.it_;
    }

   private:
    friend class ProfileSet;
    const_iterator(const ProfileSet* set, OpTable::NameMap::const_iterator it)
        : set_(set), it_(it) {
      SkipInvisible();
    }
    void SkipInvisible();

    const ProfileSet* set_ = nullptr;
    OpTable::NameMap::const_iterator it_;
  };

  const_iterator begin() const {
    return const_iterator(this, table_.by_name().begin());
  }
  const_iterator end() const {
    return const_iterator(this, table_.by_name().end());
  }

  // Text serialization.
  void Serialize(std::ostream& os) const;
  std::string ToString() const;
  // Parses a serialized set; throws std::runtime_error on malformed input,
  // including a count that is not a plain unsigned decimal or a profile
  // whose bucket counts sum past 2^64 - 1.  A `recorded=` that disagrees
  // with the buckets parses: CheckConsistency reports it.
  static ProfileSet Parse(std::istream& is);
  static ProfileSet ParseString(const std::string& text);

  // True iff every contained histogram passes its checksum test.
  bool CheckConsistency() const;

 private:
  // A slot participates in size()/iteration/serialization iff it was
  // declared (operator[]/Parse/Merge) or has recorded at least one latency.
  bool Visible(OpId id) const {
    return declared_[static_cast<std::size_t>(id)] ||
           profiles_[static_cast<std::size_t>(id)].histogram().recorded() != 0;
  }

  int resolution_;
  OpTable table_;
  std::vector<Profile> profiles_;  // Indexed by OpId, parallel to table_.
  std::vector<bool> declared_;     // Indexed by OpId.
};

}  // namespace osprof

#endif  // OSPROF_SRC_CORE_PROFILE_H_
