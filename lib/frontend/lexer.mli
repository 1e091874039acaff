(** Hand-written lexer for MiniCUDA. *)

type token =
  | Tok_int of int64
  | Tok_float of float
  | Tok_ident of string
  | Tok_kw of string        (** keywords: kernel, int, float, if, while, ... *)
  | Tok_punct of string     (** operators and punctuation, longest match *)
  | Tok_pragma of string    (** the rest of a [#pragma] line, trimmed *)
  | Tok_eof

type t = { tok : token; pos : Ast.pos }

exception Error of string * Ast.pos

val tokenize : string -> t list
(** @raise Error on an invalid character or malformed literal. *)
