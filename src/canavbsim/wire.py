"""Frame-format facts shared by the config and the model: Ethernet frame
sizes and classes, CAN identifier and payload limits, and the gateway's
packed-record layout.  Standard library only.

Wire format of a packed payload (all integers little-endian):

    offset 0: record_count  u16
    then per record:
        can_id      u32  (11 significant bits)
        dlc         u8
        created_at  u64  (ns)
        data        dlc bytes

A record is 13 + dlc bytes; a payload of n records is 2 + sum(13 + dlc_i)
bytes and must fit the configured MTU payload.  Records appear in CAN
arrival (FIFO) order.
"""

import struct

PREAMBLE_BYTES = 8  # preamble + start-of-frame delimiter
HEADER_BYTES = 14
VLAN_TAG_BYTES = 4
FCS_BYTES = 4
IFG_BYTES = 12
MIN_PAYLOAD = 46
MAX_PAYLOAD = 1500

# Priority code point mapped to the shaped queue; everything else is
# best-effort.  One AVB class only.
AVB_PCP = 3

CAN_MAX_ID = 0x7FF
CAN_MAX_DLC = 8

STUFFING_NONE = "none"
STUFFING_WORST_CASE = "worst_case"
STUFFING_MODELS = (STUFFING_NONE, STUFFING_WORST_CASE)

COUNT_STRUCT = struct.Struct("<H")
RECORD_STRUCT = struct.Struct("<IBQ")
COUNT_SIZE = COUNT_STRUCT.size
RECORD_OVERHEAD = RECORD_STRUCT.size  # 13 bytes before the data field


def filler_payload_len(frame_total_bytes: int, pcp: int) -> int:
    """The payload of a filler frame whose on-wire MAC frame, header and FCS
    included, is frame_total_bytes; a pcp in the shaped class adds the VLAN
    tag.  The result may fall outside MIN_PAYLOAD..MAX_PAYLOAD; callers check."""
    tag = VLAN_TAG_BYTES if pcp == AVB_PCP else 0
    return frame_total_bytes - HEADER_BYTES - FCS_BYTES - tag
