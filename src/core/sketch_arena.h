// SketchArena: V serialized node records (sketch/node_record.h) in one
// flat, reference-counted, copy-on-write buffer. It is the storage of
// both the in-memory sketch store and GraphSnapshot, which is what makes
// a RAM-store snapshot O(1): the snapshot shares the store's arena, and
// the store clones it only if it must write while a snapshot is alive.
//
// Copying an arena shares the bytes; writers call MakeUnique() first.
// unique() is an acquire load that pairs with the release of the last
// other handle, possibly on another thread: once it returns true, every
// read made through that handle happened before the caller's writes.
// (shared_ptr::use_count() gives no such ordering.)
//
// Handles are not themselves thread-safe: one handle is used by one
// thread at a time, while distinct handles to the same bytes may live
// on different threads.
#ifndef GZ_CORE_SKETCH_ARENA_H_
#define GZ_CORE_SKETCH_ARENA_H_

#include <cstddef>
#include <cstdint>

namespace gz {

class SketchArena {
 public:
  SketchArena() = default;
  // `num_records` all-zero records (all-zero is the empty sketch). A
  // fresh large arena gets its pages zero-filled by the kernel on first
  // write, so it costs nothing up front; one that reuses the last freed
  // buffer of its size (see sketch_arena.cc) is cleared here instead.
  static SketchArena Zeroed(uint64_t num_records, size_t record_bytes);
  // Same geometry, contents unspecified: for callers that overwrite
  // every byte next.
  static SketchArena Uninitialized(uint64_t num_records, size_t record_bytes);

  SketchArena(const SketchArena& other);
  SketchArena& operator=(const SketchArena& other);
  SketchArena(SketchArena&& other) noexcept;
  SketchArena& operator=(SketchArena&& other) noexcept;
  ~SketchArena();

  bool empty() const { return block_ == nullptr; }
  uint64_t num_records() const;
  size_t record_bytes() const;
  size_t size_bytes() const { return num_records() * record_bytes(); }

  const uint8_t* data() const;
  const uint8_t* record(uint64_t i) const {
    return data() + i * record_bytes();
  }
  // Writable views; valid only while unique() (call MakeUnique() first).
  uint8_t* mutable_data();
  uint8_t* mutable_record(uint64_t i) {
    return mutable_data() + i * record_bytes();
  }

  // True when no other handle shares these bytes.
  bool unique() const;
  // Clones the bytes if another handle shares them; afterwards unique().
  void MakeUnique();
  // True when both handles share one buffer.
  bool SharesWith(const SketchArena& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

 private:
  struct Block;
  explicit SketchArena(Block* block) : block_(block) {}
  static SketchArena Allocate(uint64_t num_records, size_t record_bytes,
                              bool zero);
  void Release();

  Block* block_ = nullptr;
};

}  // namespace gz

#endif  // GZ_CORE_SKETCH_ARENA_H_
