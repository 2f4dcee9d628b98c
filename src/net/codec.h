#ifndef MTDB_NET_CODEC_H_
#define MTDB_NET_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/net/message.h"

namespace mtdb::net {

// The wire format (DESIGN.md §8): every message is one length-prefixed frame
//
//   frame   := u32 payload-length (little-endian) | payload
//   payload := u8 message-tag | fields...
//
// Fields use the storage encoding (src/storage/encoding.h), the same one the
// WAL writes its records in: fixed-width little-endian integers,
// u32-count-prefixed strings and repeated fields, tagged SQL values. Copies
// travel as WAL record payloads, opaque strings here that the target
// decodes when it replays them. Decoding is fully bounds-checked: a
// truncated frame, a trailing byte or an unknown tag yields an error
// Status, never a crash or a partial message.

// Frames larger than this are rejected as corrupt before any allocation.
inline constexpr uint32_t kMaxFrameBytes = 256u << 20;  // 256 MiB

// Serializes a message into a frame appended to *out.
void EncodeRequestFrame(const RpcRequest& request, std::string* out);
void EncodeResponseFrame(const RpcResponse& response, std::string* out);

// Frame splitting for stream transports. If `buffer` starts with a complete
// frame, returns its payload and sets *frame_size to the total bytes
// consumed (header + payload); otherwise returns nullopt (more bytes
// needed). An over-limit length prefix is reported via *error.
std::optional<std::string_view> ExtractFrame(std::string_view buffer,
                                             size_t* frame_size,
                                             Status* error);

// Decodes a frame payload (without the length prefix). The whole payload
// must be consumed: trailing bytes are rejected.
Result<RpcRequest> DecodeRequest(std::string_view payload);
Result<RpcResponse> DecodeResponse(std::string_view payload);

}  // namespace mtdb::net

#endif  // MTDB_NET_CODEC_H_
