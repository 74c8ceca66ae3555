// Read-only memory-mapped file. The engine loader uses it for
// zero-copy FQBERT03 loads: the weight tiles in the file are already
// in the GEMM's layout, so the engine's weight views can point
// straight into the mapping. PROT_READ + MAP_SHARED means
// the pages live in the page cache once per FILE, not once per
// process — N server replicas loading the same engine share one
// physical copy, and a hot LOAD costs page faults, not read+widen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fqbert::platform {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Map `path` read-only. False on open/stat/mmap failure (error()
  /// explains); an empty file maps successfully with size() == 0.
  bool open(const std::string& path);
  void close();

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }
  const std::string& error() const { return error_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::string error_;
};

}  // namespace fqbert::platform
