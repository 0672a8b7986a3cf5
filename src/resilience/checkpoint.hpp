// Slab checkpoints: versioned, CRC32C-checksummed snapshots of all
// registered arrays, written atomically so a crash at any instant leaves a
// loadable generation on disk.
//
// On-disk format (native endianness, version 1):
//
//   u32 magic "HCOP"        u32 version
//   u64 generation          i64 steps_done        i64 steps_target
//   u32 array_count
//   per array:  u32 dims    u32 elem_size
//               i64 levels  i64 level_size
//               i64 extents[dims]
//               u64 payload_bytes
//   payloads, concatenated in array order
//   u32 crc32c over everything above
//
// A Snapshot holds one generation in exactly these bytes, with a view of
// each array's payload.  A Stencil keeps one and reuses its buffer: a
// capture fills it from the live arrays (the supervisor's rollback point),
// a checkpoint seals and writes it, a load fills it from a file, and one
// two-pass restore copies it back for both rollback and resume.
//
// Files are named `<base>.<generation>.ckpt`; the writer goes through
// io::atomic_write_file (temp + rename + bounded retry/backoff) and prunes
// old generations after a successful write.  The loader walks generations
// newest-first and skips any snapshot whose magic, structure, step counts,
// length, or checksum does not verify — a flipped byte or truncated file
// silently falls back to the previous generation.  The CRC runs on the
// SSE4.2 `crc32` instruction where the CPU has it and on a table loop
// elsewhere; both write the same bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "support/atomic_file.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define POCHOIR_CRC32C_SSE42 1
#endif

namespace pochoir::resilience {

// --- CRC32C (Castagnoli) --------------------------------------------------

namespace detail {

inline const std::uint32_t* crc32c_table() {
  static const auto table = [] {
    static std::uint32_t t[256];
    constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPoly : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

/// Table-driven CRC32C, a byte per lookup: the path on every target and CPU
/// without SSE4.2, and the tests' reference for the hardware path.
inline std::uint32_t crc32c_software(std::uint32_t crc, const void* data,
                                     std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::uint32_t* table = crc32c_table();
  crc = ~crc;
  for (std::size_t i = 0; i < bytes; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

#ifdef POCHOIR_CRC32C_SSE42
/// The same CRC on the SSE4.2 `crc32` instruction, 8 bytes a step.  One
/// stream outruns the file write that follows it, so none are interleaved.
[[gnu::target("sse4.2")]] inline std::uint32_t crc32c_sse42(
    std::uint32_t crc, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~crc;
  for (; bytes >= 8; bytes -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);  // unaligned load
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; bytes > 0; --bytes, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

/// The SSE4.2 path where the target and CPU have it, else the table loop.
inline decltype(&crc32c_software) crc32c_impl() {
#ifdef POCHOIR_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_sse42;
#endif
  return &crc32c_software;
}

}  // namespace detail

/// Incremental CRC32C; start with crc = 0 and chain over buffers.
inline std::uint32_t crc32c(std::uint32_t crc, const void* data,
                            std::size_t bytes) {
  static const auto impl = detail::crc32c_impl();  // chosen once per process
  return impl(crc, data, bytes);
}

// --- checkpoint data model -------------------------------------------------

constexpr std::uint32_t kCheckpointMagic = 0x504F4348u;  // "HCOP" on disk
constexpr std::uint32_t kCheckpointVersion = 1;

struct CheckpointMeta {
  std::uint64_t generation = 0;
  std::int64_t steps_done = 0;    ///< steps completed when the snapshot was taken
  std::int64_t steps_target = 0;  ///< total steps the interrupted run aimed for
};

/// One array's layout and a view of its raw storage (all time levels): a
/// live array's storage, or its payload inside a Snapshot.
struct ArraySnapshot {
  std::uint32_t dims = 0;
  std::uint32_t elem_size = 0;
  std::int64_t levels = 0;
  std::int64_t level_size = 0;
  std::vector<std::int64_t> extents;
  unsigned char* data = nullptr;
  std::uint64_t bytes = 0;
};

namespace detail {

/// Visits every header field in file order: magic, version, meta, then
/// per array its layout and payload size.
template <typename Visit>
void visit_header(const CheckpointMeta& meta,
                  const std::vector<ArraySnapshot>& arrays, Visit&& visit) {
  visit(kCheckpointMagic);
  visit(kCheckpointVersion);
  visit(meta.generation);
  visit(meta.steps_done);
  visit(meta.steps_target);
  visit(static_cast<std::uint32_t>(arrays.size()));
  for (const ArraySnapshot& a : arrays) {
    visit(a.dims);
    visit(a.elem_size);
    visit(a.levels);
    visit(a.level_size);
    for (std::int64_t e : a.extents) visit(e);
    visit(a.bytes);
  }
}

}  // namespace detail

/// One generation's bytes exactly as on disk (header, payloads, CRC
/// trailer), with a view of each array's payload.  A capture copies live
/// arrays in, a checkpoint write seals and writes the bytes, a load
/// verifies a file into them, and a restore copies them back out.  The
/// buffer is reused: a capture or load of the same layout allocates no
/// payload memory.  Move-only (declaring the moves deletes the copies): a
/// copy's views would still point into the source's bytes, and a moved
/// vector keeps its buffer.
struct Snapshot {
  Snapshot() = default;
  Snapshot(Snapshot&&) = default;
  Snapshot& operator=(Snapshot&&) = default;

  CheckpointMeta meta;
  std::vector<ArraySnapshot> arrays;  ///< payload views into `raw`
  std::vector<unsigned char> raw;     ///< the whole image, CRC trailer included

  /// Encodes `meta`, the layouts of `live` and a copy of their storage.
  /// The CRC trailer is left for seal().
  void capture(const CheckpointMeta& m,
               const std::vector<ArraySnapshot>& live) {
    meta = m;
    arrays = live;
    std::size_t size = sizeof(std::uint32_t);
    detail::visit_header(meta, arrays,
                         [&](const auto& v) { size += sizeof v; });
    for (const ArraySnapshot& a : arrays) size += a.bytes;
    raw.resize(size);
    std::size_t pos = 0;
    detail::visit_header(meta, arrays, [&](const auto& v) {
      std::memcpy(raw.data() + pos, &v, sizeof v);
      pos += sizeof v;
    });
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      arrays[i].data = raw.data() + pos;
      std::memcpy(arrays[i].data, live[i].data, arrays[i].bytes);
      pos += arrays[i].bytes;
    }
  }

  /// Writes the CRC32C of everything before the trailer into the trailer.
  void seal() {
    const std::size_t body = raw.size() - sizeof(std::uint32_t);
    const std::uint32_t crc = crc32c(0, raw.data(), body);
    std::memcpy(raw.data() + body, &crc, sizeof crc);
  }

  /// Copies the payloads into `live`.  Two passes: every layout is checked
  /// against `live` before any byte is copied, so a mismatch never leaves
  /// a partial restore.  Returns "" on success, else the first mismatch.
  [[nodiscard]] std::string restore(
      const std::vector<ArraySnapshot>& live) const {
    if (arrays.size() != live.size()) {
      return "checkpoint holds " + std::to_string(arrays.size()) +
             " arrays, this stencil registers " + std::to_string(live.size());
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      const ArraySnapshot& a = arrays[i];
      const ArraySnapshot& b = live[i];
      const char* what =
          a.dims != b.dims               ? "dimensionality mismatch"
          : a.elem_size != b.elem_size   ? "element size mismatch"
          : a.levels != b.levels         ? "time-level count mismatch"
          : a.level_size != b.level_size ? "level size mismatch"
          : a.extents != b.extents       ? "extents mismatch"
          : a.bytes != b.bytes           ? "payload size mismatch"
                                         : nullptr;
      if (what != nullptr) return "array " + std::to_string(i) + ": " + what;
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      std::memcpy(live[i].data, arrays[i].data, arrays[i].bytes);
    }
    return {};
  }
};

// --- file naming -----------------------------------------------------------

inline std::string checkpoint_file_name(const std::string& base,
                                        std::uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof buf, ".%08llu.ckpt",
                static_cast<unsigned long long>(generation));
  return base + buf;
}

/// Existing generations for `base`, sorted ascending.
inline std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& base) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::uint64_t, std::string>> found;
  const fs::path base_path(base);
  const fs::path dir =
      base_path.parent_path().empty() ? fs::path(".") : base_path.parent_path();
  const std::string stem = base_path.filename().string() + ".";
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= stem.size() + 5 || name.compare(0, stem.size(), stem) != 0 ||
        name.compare(name.size() - 5, 5, ".ckpt") != 0) {
      continue;
    }
    const std::string digits = name.substr(stem.size(),
                                           name.size() - stem.size() - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                       it->path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

/// First unused generation number for `base` (1 on a fresh directory).
inline std::uint64_t next_generation(const std::string& base) {
  const auto existing = list_checkpoints(base);
  return existing.empty() ? 1 : existing.back().first + 1;
}

/// Deletes generations older than `newest - keep + 1`.
inline void prune_checkpoints(const std::string& base, std::uint64_t newest,
                              int keep) {
  if (keep < 1) keep = 1;
  std::error_code ec;
  for (const auto& [gen, path] : list_checkpoints(base)) {
    if (gen + static_cast<std::uint64_t>(keep) <= newest) {
      std::filesystem::remove(path, ec);
    }
  }
}

// --- writing ---------------------------------------------------------------

struct WriteCheckpointResult {
  bool ok = false;
  int attempts = 0;
  std::string file;
  std::string error;
};

/// Seals `snap` and writes its bytes as generation `snap.meta.generation`.
/// `io_fault`, when set and returning true, fails an attempt before any IO
/// (FaultPlan seam).  On success the oldest generations beyond
/// `keep_generations` are pruned.
inline WriteCheckpointResult write_checkpoint(
    const std::string& base, Snapshot& snap, int keep_generations = 2,
    int io_retries = 3, int io_backoff_ms = 10,
    const std::function<bool()>& io_fault = {}) {
  WriteCheckpointResult result;
  result.file = checkpoint_file_name(base, snap.meta.generation);
  snap.seal();
  const io::AtomicWriteResult io = io::atomic_write_file(
      result.file,
      [&](std::FILE* f) {
        return std::fwrite(snap.raw.data(), 1, snap.raw.size(), f) ==
               snap.raw.size();
      },
      io_retries, io_backoff_ms, io_fault);
  result.ok = io.ok;
  result.attempts = io.attempts;
  result.error = io.error;
  if (result.ok) {
    prune_checkpoints(base, snap.meta.generation, keep_generations);
  }
  return result;
}

// --- loading ---------------------------------------------------------------

namespace detail {

class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
  bool read(T& out) {
    if (pos_ + sizeof(T) > size_) return false;
    std::memcpy(&out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Reads and verifies one checkpoint file into `out`, reusing its buffer;
/// false on any structural, step-count or checksum mismatch (the caller
/// falls back to an older generation), and `out` then holds no usable
/// generation.
inline bool load_checkpoint_file(const std::string& path, Snapshot& out) {
  out.arrays.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::vector<unsigned char>& raw = out.raw;
  {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) {
      std::fclose(f);
      return false;
    }
    raw.resize(static_cast<std::size_t>(size));
    const std::size_t got = raw.empty() ? 0 : std::fread(raw.data(), 1, raw.size(), f);
    std::fclose(f);
    if (got != raw.size()) return false;
  }
  if (raw.size() < sizeof(std::uint32_t) * 3) return false;
  const std::size_t body = raw.size() - sizeof(std::uint32_t);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, raw.data() + body, sizeof stored_crc);
  if (crc32c(0, raw.data(), body) != stored_crc) return false;

  detail::ByteReader r(raw.data(), body);
  std::uint32_t magic = 0, version = 0, array_count = 0;
  if (!r.read(magic) || magic != kCheckpointMagic) return false;
  if (!r.read(version) || version != kCheckpointVersion) return false;
  if (!r.read(out.meta.generation) || !r.read(out.meta.steps_done) ||
      !r.read(out.meta.steps_target) || !r.read(array_count)) {
    return false;
  }
  // The writer only stores 0 <= steps_done <= steps_target.
  if (out.meta.steps_done < 0 || out.meta.steps_done > out.meta.steps_target) {
    return false;
  }
  if (array_count > 4096) return false;
  for (std::uint32_t i = 0; i < array_count; ++i) {
    ArraySnapshot a;
    if (!r.read(a.dims) || !r.read(a.elem_size) || !r.read(a.levels) ||
        !r.read(a.level_size) || a.dims > 16) {
      return false;
    }
    a.extents.resize(a.dims);
    for (auto& e : a.extents) {
      if (!r.read(e)) return false;
    }
    if (!r.read(a.bytes)) return false;
    out.arrays.push_back(std::move(a));
  }
  std::size_t pos = r.pos();
  for (ArraySnapshot& a : out.arrays) {
    // a.bytes comes from the file: compare against the bytes left, so a
    // huge length cannot wrap the sum past the check.
    if (a.bytes > body - pos) return false;
    a.data = raw.data() + pos;
    pos += a.bytes;
  }
  if (pos != body) return false;  // trailing garbage
  return true;
}

/// Loads the newest generation that verifies into `out`, skipping corrupt
/// or truncated snapshots in favour of older ones.  Returns its file, or ""
/// when none verifies.
inline std::string load_latest_checkpoint(const std::string& base,
                                          Snapshot& out) {
  const auto generations = list_checkpoints(base);
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    if (load_checkpoint_file(it->second, out)) return it->second;
  }
  return {};
}

}  // namespace pochoir::resilience
