#ifndef OPDELTA_PIPELINE_SHIPPED_MESSAGE_H_
#define OPDELTA_PIPELINE_SHIPPED_MESSAGE_H_

#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "extract/delta.h"
#include "extract/op_delta.h"

namespace opdelta::pipeline {

/// The one wire format of a shipped batch, owned by this module alone:
///
///   'F' version:u8 features:fixed32 kind:u8 source:len-prefixed
///   epoch:fixed64 seq:fixed64 schema_epoch:fixed64 crc:fixed32
///   payload_tag:u8 payload
///
/// `kind` is 'B' for a live batch and 'C' for a backfill snapshot chunk
/// (BatchId::snapshot). `crc` is a CRC32C over the payload tag and payload,
/// stamped once at capture and verified at apply, so bit rot anywhere
/// between the two is caught. The payload tag is 'V' for a value-delta
/// DeltaBatch and 'O' for serialized op-delta transactions. Anything that
/// is not such a frame fails with kCorruption ("unknown pipeline message");
/// an unknown version, feature bit or kind fails with kSchemaMismatch
/// naming the offender, never a guessed decode.

/// Payload of a shipped message.
enum class PayloadKind { kValueDelta, kOpDelta };

/// A decoded shipped message. `op_body` points into the bytes it was
/// decoded from, which must outlive it; decode it with
/// extract::ParseOpDeltaLog against the schemas of `id.schema_epoch`.
struct ShippedMessage {
  extract::BatchId id;
  PayloadKind kind = PayloadKind::kValueDelta;
  extract::DeltaBatch batch;  // kValueDelta
  Slice op_body;              // kOpDelta
};

/// Frames `batch` under `id` into `*out` (replacing its contents).
void EncodeValueDeltaMessage(const extract::BatchId& id,
                             const extract::DeltaBatch& batch,
                             std::string* out);

/// Frames `txns` under `id` into `*out` (replacing its contents).
void EncodeOpDeltaMessage(const extract::BatchId& id,
                          const std::vector<extract::OpDeltaTxn>& txns,
                          std::string* out);

/// Decodes a whole message: identity, payload CRC, payload.
Status DecodeMessage(Slice message, ShippedMessage* out);

/// Decodes only the identity, without checking the payload CRC (routing
/// and queue scans). `*id` is reset first, so it stays invalid on failure.
Status DecodeMessageId(Slice message, extract::BatchId* id);

}  // namespace opdelta::pipeline

#endif  // OPDELTA_PIPELINE_SHIPPED_MESSAGE_H_
