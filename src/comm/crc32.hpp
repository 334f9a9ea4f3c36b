// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte spans.
//
// The comm fabric appends this checksum to every Envelope so receivers
// can reject payloads the fault-injecting network corrupted or
// truncated in flight, before any structural decode runs. One portable
// slice-by-16 kernel: 16 constexpr 256-entry tables (16 KiB), 16 bytes
// per step read as two little-endian words assembled from bytes, then
// a bytewise tail; no intrinsics, no CPU dispatch. Incremental form
// exposed so framing code can checksum header + payload without
// concatenating them.
#pragma once

#include <cstdint>
#include <span>

namespace fedcav::comm {

/// Continue a CRC-32 computation: feed `data` into the running value
/// `crc` (pass kCrc32Init to start, finalize with crc32_finish).
std::uint32_t crc32_update(std::uint32_t crc, std::span<const std::uint8_t> data);

inline constexpr std::uint32_t kCrc32Init = 0xffffffffu;
inline std::uint32_t crc32_finish(std::uint32_t crc) { return crc ^ 0xffffffffu; }

/// One-shot checksum of a buffer.
inline std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_finish(crc32_update(kCrc32Init, data));
}

}  // namespace fedcav::comm
