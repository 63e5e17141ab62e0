(** Experiment runners used by the benchmark harness and by the
    calibration tests.  Each runner builds a fresh simulated testbed
    (matching the paper's: MC68030s on one 10 Mbit/s Ethernet), runs
    the workload, and returns the measurements the paper reports. *)

open Amoeba_core

type delay_result = {
  mean_ms : float;
  min_ms : float;
  max_ms : float;
  samples : int;
}

val broadcast_delay :
  ?cost:Amoeba_net.Cost_model.t ->
  ?samples:int ->
  ?resilience:int ->
  ?net:Amoeba_net.Impair.conditions ->
  ?fabric:Amoeba_net.Medium.spec ->
  n:int ->
  size:int ->
  send_method:Types.send_method ->
  unit ->
  delay_result
(** Figures 1, 3 and 7: one member (on a different machine than the
    sequencer when [n > 1]) broadcasts continuously; every member
    receives.  Reports the SendToGroup delay.  [net] installs
    persistent link conditions for the measurement loop (setup stays
    clean); a send that exhausts its retries under injected loss is
    dropped from the sample set rather than failing the run.  [fabric]
    selects the medium (shared wire by default). *)

type throughput_result = {
  msgs_per_sec : float;
  rx_dropped : int;  (** receive-ring overflows anywhere in the group *)
  retransmissions : int;
  meaningful : bool;
      (** false when drops forced retransmission stalls — the
          configurations the paper could not measure meaningfully *)
}

val group_throughput :
  ?cost:Amoeba_net.Cost_model.t ->
  ?duration_ms:int ->
  ?resilience:int ->
  ?history:int ->
  n:int ->
  size:int ->
  send_method:Types.send_method ->
  unit ->
  throughput_result
(** Figures 4, 5 and 8: every member of the group sends continuously;
    reports how many messages per second the group sequences. *)

type multigroup_result = {
  total_msgs_per_sec : float;
  ether_utilisation : float;
  collisions : int;
}

val multigroup_throughput :
  ?duration_ms:int -> groups:int -> members:int -> unit -> multigroup_result
(** Figure 6: disjoint groups of equal size run in parallel on the
    same Ethernet, all members sending 0-byte messages continuously. *)

val critical_path : unit -> (string * float) list * float
(** Figure 2 / Table 3: per-layer microseconds on the critical path of
    a single 0-byte SendToGroup in a group of 2 (PB), plus the total. *)

val null_rpc_delay_ms : unit -> float
(** The paper's RPC baseline: null RPC delay on the same hardware. *)

type baseline_protocol = Amoeba_pb | Amoeba_bb | Cm_token | Pos_ack | Migrating

val baseline_name : baseline_protocol -> string

type baseline_result = {
  delay_ms : float;  (** 1-sender broadcast delay *)
  tput_per_sec : float;  (** all-senders throughput *)
  frames_per_msg : float;  (** network frames per delivered broadcast *)
  interrupts_per_msg : float;  (** per-receiver interrupts per broadcast *)
}

val baseline_compare :
  ?duration_ms:int -> n:int -> baseline_protocol -> baseline_result
(** Section 6 quantified: the same workload across Amoeba and the
    comparison protocols. *)

val burst_delay :
  ?bursts:int -> ?burst_len:int -> n:int -> [ `Static | `Migrating ] -> float
(** Section 5 ablation: mean per-message delay when one member sends
    messages in bursts, static versus migrating sequencer. *)

type load_point = {
  offered_per_sec : float;
  completed_per_sec : float;
  mean_delay_ms : float;
}

val open_loop_load :
  ?duration_ms:int -> n:int -> rate_per_sec:float -> unit -> load_point
(** Open-loop (Poisson) load: arrivals at [rate_per_sec] spread over
    the group's members, each send on its own thread.  Shows the
    queueing knee at the sequencer as offered load approaches the
    closed-loop throughput ceiling — conclusion 1 in queueing form. *)

val scaled_processing : float -> Amoeba_net.Cost_model.t
(** The default cost model with every host software cost (interrupt,
    driver, protocol layers, copies, context switches) multiplied by
    the factor — "a faster CPU" for < 1.  Wire timing is physics and
    stays fixed.  Supports the paper's conclusion that throughput is
    limited by message processing time, not by the protocol. *)

val user_space_costs : Amoeba_net.Cost_model.t
(** The cost model of a user-space protocol implementation (paper §5,
    Oey et al.): every message crosses the kernel/user boundary twice
    more, adding two context switches per packet on the send and
    receive paths. *)
