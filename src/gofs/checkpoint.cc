#include "gofs/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/log.h"

namespace tsg {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x54504B43;  // "CKPT"
constexpr std::uint8_t kCheckpointVersion = 1;

// One manifest entry: fixed width so a torn append is detectable by size.
//   i32 timestep | u64 pack size | u64 pack FNV-1a | u64 entry FNV-1a
constexpr std::size_t kManifestRecordBytes = 4 + 8 + 8 + 8;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

void encodeMessages(const std::vector<Message>& msgs, BinaryWriter& w) {
  w.writeVarint(msgs.size());
  for (const auto& msg : msgs) {
    w.writeU32(msg.src);
    w.writeU32(msg.dst);
    w.writeI32(msg.origin_timestep);
    w.writeVarint(msg.payload.size());
    w.writeBytes(msg.payload.data(), msg.payload.size());
  }
}

Status decodeMessages(BinaryReader& r, std::vector<Message>& out) {
  std::uint64_t n = 0;
  TSG_RETURN_IF_ERROR(r.readVarint(n));
  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    Message msg;
    TSG_RETURN_IF_ERROR(r.readU32(msg.src));
    TSG_RETURN_IF_ERROR(r.readU32(msg.dst));
    TSG_RETURN_IF_ERROR(r.readI32(msg.origin_timestep));
    std::vector<std::uint8_t> payload;
    TSG_RETURN_IF_ERROR(r.readPodVector(payload));
    msg.payload = PayloadBuffer(payload.data(), payload.size());
    out.push_back(std::move(msg));
  }
  return Status::ok();
}

}  // namespace

std::vector<std::uint8_t> encodeCheckpoint(const Checkpoint& ckpt) {
  BinaryWriter w;
  w.writeU32(kCheckpointMagic);
  w.writeU8(kCheckpointVersion);
  w.writeI32(ckpt.timestep);
  w.writeI32(ckpt.timesteps_executed);
  w.writeVarint(ckpt.partitions.size());
  for (const auto& part : ckpt.partitions) {
    w.writePodVector(part.program_state);
    w.writeStringVector(part.outputs);
  }
  encodeMessages(ckpt.pending_next, w);
  encodeMessages(ckpt.merge_pool, w);
  w.writeVarint(ckpt.aggregates.size());
  for (const auto& [name, value] : ckpt.aggregates) {
    w.writeString(name);
    w.writeU64(value);
  }
  return w.takeBuffer();
}

Result<Checkpoint> decodeCheckpoint(std::span<const std::uint8_t> bytes) {
  BinaryReader r(bytes);
  std::uint32_t magic = 0;
  TSG_RETURN_IF_ERROR(r.readU32(magic));
  if (magic != kCheckpointMagic) {
    return Status::corruptData("bad checkpoint magic");
  }
  std::uint8_t version = 0;
  TSG_RETURN_IF_ERROR(r.readU8(version));
  if (version != kCheckpointVersion) {
    return Status::corruptData("unsupported checkpoint version");
  }
  Checkpoint ckpt;
  TSG_RETURN_IF_ERROR(r.readI32(ckpt.timestep));
  TSG_RETURN_IF_ERROR(r.readI32(ckpt.timesteps_executed));
  std::uint64_t num_parts = 0;
  TSG_RETURN_IF_ERROR(r.readVarint(num_parts));
  ckpt.partitions.resize(static_cast<std::size_t>(num_parts));
  for (auto& part : ckpt.partitions) {
    TSG_RETURN_IF_ERROR(r.readPodVector(part.program_state));
    TSG_RETURN_IF_ERROR(r.readStringVector(part.outputs));
  }
  TSG_RETURN_IF_ERROR(decodeMessages(r, ckpt.pending_next));
  TSG_RETURN_IF_ERROR(decodeMessages(r, ckpt.merge_pool));
  std::uint64_t num_aggs = 0;
  TSG_RETURN_IF_ERROR(r.readVarint(num_aggs));
  for (std::uint64_t i = 0; i < num_aggs; ++i) {
    std::string name;
    std::uint64_t value = 0;
    TSG_RETURN_IF_ERROR(r.readString(name));
    TSG_RETURN_IF_ERROR(r.readU64(value));
    ckpt.aggregates.emplace(std::move(name), value);
  }
  if (!r.atEnd()) {
    return Status::corruptData("trailing bytes in checkpoint");
  }
  return ckpt;
}

Status MemoryCheckpointStore::save(const Checkpoint& ckpt) {
  latest_ = encodeCheckpoint(ckpt);
  ++saves_;
  return Status::ok();
}

Result<Checkpoint> MemoryCheckpointStore::loadLatest() {
  if (latest_.empty()) {
    return Status::notFound("no checkpoint saved");
  }
  return decodeCheckpoint(latest_);
}

FileCheckpointStore::FileCheckpointStore(std::string dir)
    : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
}

std::string FileCheckpointStore::packPath(Timestep t) const {
  return dir_ + "/ckpt_" + std::to_string(t) + ".bin";
}

std::string FileCheckpointStore::manifestPath() const {
  return dir_ + "/manifest.log";
}

Status FileCheckpointStore::save(const Checkpoint& ckpt) {
  const std::vector<std::uint8_t> pack = encodeCheckpoint(ckpt);
  const std::string path = packPath(ckpt.timestep);
  const std::string tmp = path + ".tmp";
  TSG_RETURN_IF_ERROR(writeFileBytes(tmp, pack));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::ioError("cannot rename checkpoint pack: " + path);
  }

  // Append the manifest record only after the pack is renamed into place,
  // so a process crash between the two leaves at worst an unreferenced pack
  // (harmless) — never a manifest entry pointing at a missing or partial
  // pack. Process-crash consistent; not power-loss durable: nothing here
  // is fsync'd, so the OS may persist the manifest before the pack.
  BinaryWriter w;
  w.writeI32(ckpt.timestep);
  w.writeU64(pack.size());
  w.writeU64(fnv1a(pack));
  w.writeU64(fnv1a(w.buffer()));
  std::FILE* f = std::fopen(manifestPath().c_str(), "ab");
  if (f == nullptr) {
    return Status::ioError("cannot open manifest: " + manifestPath());
  }
  const std::size_t written =
      std::fwrite(w.buffer().data(), 1, w.buffer().size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != w.buffer().size() || !flushed) {
    return Status::ioError("short manifest append: " + manifestPath());
  }
  return Status::ok();
}

bool FileCheckpointStore::hasCheckpoint() const {
  std::error_code ec;
  const auto size = std::filesystem::file_size(manifestPath(), ec);
  return !ec && size >= kManifestRecordBytes;
}

Result<Checkpoint> FileCheckpointStore::loadLatest() {
  auto manifest = readFileBytes(manifestPath());
  if (!manifest.isOk()) {
    return Status::notFound("no checkpoint manifest in " + dir_);
  }
  const auto& bytes = manifest.value();
  const std::size_t whole = bytes.size() / kManifestRecordBytes;
  if (bytes.size() % kManifestRecordBytes != 0) {
    TSG_LOG(Warn) << "checkpoint manifest has a torn tail ("
                  << bytes.size() % kManifestRecordBytes
                  << " trailing byte(s)); ignoring it";
  }

  // Newest-first: the last intact manifest entry whose pack validates wins.
  for (std::size_t idx = whole; idx-- > 0;) {
    const std::span<const std::uint8_t> record(
        bytes.data() + idx * kManifestRecordBytes, kManifestRecordBytes);
    BinaryReader r(record);
    Timestep t = 0;
    std::uint64_t pack_size = 0;
    std::uint64_t pack_sum = 0;
    std::uint64_t entry_sum = 0;
    (void)r.readI32(t);
    (void)r.readU64(pack_size);
    (void)r.readU64(pack_sum);
    (void)r.readU64(entry_sum);
    if (fnv1a(record.subspan(0, kManifestRecordBytes - 8)) != entry_sum) {
      TSG_LOG(Warn) << "checkpoint manifest entry " << idx
                    << " is corrupt; falling back to an earlier checkpoint";
      continue;
    }
    auto pack = readFileBytes(packPath(t));
    if (!pack.isOk()) {
      TSG_LOG(Warn) << "checkpoint pack for timestep " << t
                    << " is missing; falling back to an earlier checkpoint";
      continue;
    }
    if (pack.value().size() != pack_size ||
        fnv1a(pack.value()) != pack_sum) {
      TSG_LOG(Warn) << "checkpoint pack for timestep " << t
                    << " fails validation (size " << pack.value().size()
                    << " vs " << pack_size
                    << "); falling back to an earlier checkpoint";
      continue;
    }
    auto decoded = decodeCheckpoint(pack.value());
    if (!decoded.isOk()) {
      TSG_LOG(Warn) << "checkpoint pack for timestep " << t
                    << " fails to decode (" << decoded.status().toString()
                    << "); falling back to an earlier checkpoint";
      continue;
    }
    return decoded;
  }
  return Status::corruptData("no intact checkpoint in " + dir_);
}

}  // namespace tsg
