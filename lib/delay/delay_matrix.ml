module Dense = Gossip_linalg.Dense
module Sparse = Gossip_linalg.Sparse
module Spectral = Gossip_linalg.Spectral
module Poly = Gossip_linalg.Poly

let check_lambda lambda =
  if not (lambda > 0.0 && lambda < 1.0) then
    invalid_arg "Delay_matrix: lambda must be in (0, 1)"

let sparse dg lambda =
  check_lambda lambda;
  let m = Delay_digraph.n_activations dg in
  let entries = ref [] in
  Delay_digraph.iter_arcs
    (fun ~tail ~head ~delay ->
      entries := (tail, head, lambda ** float_of_int delay) :: !entries)
    dg;
  Sparse.of_triplets ~rows:m ~cols:m !entries

let vertex_block dg lambda x =
  check_lambda lambda;
  let ins = Delay_digraph.activations_in dg x in
  let outs = Delay_digraph.activations_out dg x in
  let w = Delay_digraph.window dg in
  Dense.init (Array.length ins) (Array.length outs) (fun i j ->
      let a = Delay_digraph.activation dg ins.(i) in
      let b = Delay_digraph.activation dg outs.(j) in
      let delay = b.Delay_digraph.round - a.Delay_digraph.round in
      if delay >= 1 && delay < w then lambda ** float_of_int delay else 0.0)

let norm ?options dg lambda =
  check_lambda lambda;
  Spectral.norm2_sparse ?options (sparse dg lambda)

module Blocks = Hashtbl.Make (struct
  type t = Dense.t

  let equal = Dense.identical
  let hash = Dense.hash
end)

let norm_blockwise ?options ?domains dg lambda =
  check_lambda lambda;
  Gossip_util.Instrument.span "delay.norm-blockwise" (fun () ->
      let n = Gossip_topology.Digraph.n_vertices (Delay_digraph.graph dg) in
      (* Identical blocks have bit-identical norms, so each distinct block
         is solved once; the max over them is the max over all vertices. *)
      let seen = Blocks.create 64 in
      for x = 0 to n - 1 do
        Blocks.replace seen (vertex_block dg lambda x) ()
      done;
      let distinct = Array.of_seq (Blocks.to_seq_keys seen) in
      (* An empty block's norm is 0. *)
      Gossip_util.Parallel.reduce ?domains (Array.length distinct)
        (fun i -> Spectral.norm2_dense ?options distinct.(i))
        Float.max 0.0)

let closed_form_bound ~mode ~window lambda =
  check_lambda lambda;
  if window < 2 then invalid_arg "Delay_matrix.closed_form_bound: window < 2";
  match mode with
  | Gossip_protocol.Protocol.Directed | Gossip_protocol.Protocol.Half_duplex ->
      let hi = (window + 1) / 2 and lo = window / 2 in
      lambda
      *. sqrt (Poly.delay_eval hi lambda)
      *. sqrt (Poly.delay_eval lo lambda)
  | Gossip_protocol.Protocol.Full_duplex -> Poly.geometric lambda (window - 1)
